// Command benchmark is the repository's one repeatable benchmark: it runs
// one workload's whole job — optimize the untuned pipeline, instantiate the
// tuned one, drain every epoch with one consumer — checks what was
// delivered against a reference drain, and prints every end-to-end metric,
// or with --trace 1 every per-layer metric, by name with its unit. The last
// line of standard output is one JSON object with the result.
//
// See README.md in this directory for the metric and workload tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	corrupt  bool
	outDir   string
}

// A run sets the workload up at least minSetUps times, and goes on while
// that (with the host-speed readings in between) has taken less than
// setUpBudget, up to maxSetUps; setup_s is the median. Most set-ups take
// tens of milliseconds, and five of those would make a jumpy median.
const (
	minSetUps   = 5
	maxSetUps   = 25
	setUpBudget = 1500 * time.Millisecond
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	var traceMode, repeat int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: hotpath, vision, cold-storage, retune, two-tenant (with -repeat also: all)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "how long to keep starting measured jobs")
	fs.IntVar(&traceMode, "trace", 0, "0: end-to-end metrics, every tracer off; 1: per-layer metrics and the span file")
	fs.BoolVar(&cfg.quick, "quick", false, "catalogs / 8 and one measured job: a smoke run, not a measurement")
	fs.IntVar(&repeat, "repeat", 0, "run the workload N times in fresh processes (seeds seed..seed+N-1) and print each end-to-end metric's spread against its bound")
	fs.BoolVar(&cfg.corrupt, "corrupt", false, "flip one payload byte in the first verification drain: the run must fail")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceMode == 1
	if traceMode != 0 && traceMode != 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1, and there are no positional arguments")
		return 2
	}
	if repeat > 0 {
		return runRepeat(cfg, repeat, stdout, stderr)
	}
	def, err := workloadByName(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	res, err := runOnce(*def, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOnce runs one workload once and returns its result. It returns an
// error only when it has no result to report.
func runOnce(def workloadDef, cfg config, out io.Writer) (*result, error) {
	if cfg.quick {
		def = def.quickened()
	}
	if def.singleP {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	fmt.Fprintf(out, "workload %s  seed %d  trace %v  quick %v  host_cores %d  GOMAXPROCS %d  %s  budget: %d cores, %d MiB\n",
		def.name, cfg.seed, cfg.trace, cfg.quick, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		def.cores(), def.memoryBytes>>20)

	s := samples{}
	var sp *spanLog
	if cfg.trace {
		sp = newSpanLog(def.name)
	}
	// Set-up is real CPU work on every workload, so each one is scaled by
	// the host-speed readings on either side of it.
	var in *instance
	before := hostSpeed()
	for i, begin := 0, time.Now(); i < minSetUps || i < maxSetUps && time.Since(begin) < setUpBudget; i++ {
		if i > 0 && (cfg.quick || cfg.trace) {
			break
		}
		runtime.GC() // every set-up starts from the same heap, or the collector's pacing decides its time
		end := sp.begin("setup")
		start := time.Now()
		var err error
		in, err = setUp(def, cfg.seed)
		took := time.Since(start)
		end()
		if err != nil {
			return nil, err
		}
		after := hostSpeed()
		s.add("setup_s", took.Seconds()*speedFactor(before, after))
		before = after
	}
	for _, t := range in.tenants {
		fmt.Fprintf(out, "reference %s: %d minibatches, %d examples, %d bytes, hash %016x\n",
			t.cat.Name, t.ref.Minibatches, t.ref.Examples, t.ref.Bytes, t.ref.Hash)
	}

	var tl tally
	var pl planned
	var extras []extra
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	err := func() (err error) {
		if !cfg.quick {
			defer sp.begin("warmup_job")()
			if err = in.warmUp(&tl); err != nil {
				return err
			}
		}
		if cfg.trace {
			extras, pl, err = tracedPass(in, &tl, sp, s, out)
		} else {
			pl, err = measure(in, cfg, &tl, s, out)
		}
		return err
	}()
	releaseHostSpeed()
	if err != nil {
		tl.fail(1, err.Error())
	} else {
		verify(in, pl, cfg.corrupt, &tl, sp, s)
	}
	if cfg.trace {
		path := filepath.Join(cfg.outDir, "trace-"+def.name+".json")
		if werr := sp.write(path); werr != nil {
			return nil, werr
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(sp.spans), path)
		sp.printSelfTimes(out)
	}

	fmt.Fprintln(out, "metrics (median of the run's samples):")
	medians := s.report(out, defs)
	for _, e := range extras {
		fmt.Fprintf(out, "  %-38s %14.6g %-6s (this workload only)\n", e.name, e.value, e.unit)
	}
	fmt.Fprintf(out, "ops_attempted %d  ops_failed %d\n", tl.attempted, tl.failed)
	for _, msg := range tl.errs {
		fmt.Fprintln(out, "FAILED:", msg)
	}
	res := &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]value{}}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	for _, d := range defs {
		v, measured := medians[d.name]
		if res.Correct && (!measured || math.IsNaN(v) || math.IsInf(v, 0)) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = value{v, d.unit} // a failed run still reports what it has
	}
	return res, nil
}

// measure is the --trace 0 run: jobs back to back until the time is used,
// every tracer off except in the drain that measures the product's own.
func measure(in *instance, cfg config, tl *tally, s samples, out io.Writer) (planned, error) {
	want := in.want()
	// Only a workload whose time is real CPU work follows the host's speed;
	// modeled CPU spins to a deadline and a throttled read sleeps, whatever
	// the host does, and dividing those by a probe would only add its noise.
	speed := func() time.Duration { return hostSpeedNominal }
	if in.def.singleP {
		speed = hostSpeed
	}
	var pl planned
	begin := time.Now()
	for jobs := 1; ; jobs++ {
		var err error
		speed0 := speed()
		if pl, err = in.optimize(); err != nil {
			return pl, err
		}
		d, err := in.deliver(pl, false, false, nil)
		speed1 := speed()
		tl.checkDelivery("job drain", d, want, err)
		if err != nil {
			return pl, err
		}
		// The retune job needs the collector for its doctor, so its one
		// drain is both the plain and the traced measurement.
		traced := d
		if in.def.kind != kindRetune {
			traced, err = in.deliver(pl, true, false, nil)
			tl.checkDelivery("traced drain", traced, want, err)
			if err != nil {
				return pl, err
			}
		}
		speed2 := speed()
		if rt := d.retune; rt != nil && rt.replans != 1 {
			return pl, fmt.Errorf("retune: %d hot-applied re-plans, want exactly 1 (%s)", rt.replans, rt.rejected)
		}
		f, ft := speedFactor(speed0, speed1), speedFactor(speed1, speed2)
		s.add("optimize_s", pl.optimize.Seconds()*f)
		s.add("job_s", (pl.optimize+d.wall).Seconds()*f)
		s.add("minibatches_per_s", d.rate()/f)
		s.add("fill_minibatches_per_s", d.fillRate()/f)
		s.add("traced_minibatches_per_s", traced.rate()/ft)
		s.add("prediction_fidelity", fidelity(pl.predicted, d.fidelityRate()))
		fmt.Fprintf(out, "job %d: optimize %.4fs  drain %.4fs  %.1f mb/s  fill %.1f  traced %.1f  predicted %.1f  host-speed factors %.3f %.3f\n",
			jobs, pl.optimize.Seconds(), d.wall.Seconds(), d.rate(), d.fillRate(), traced.rate(), pl.predicted, f, ft)
		elapsed := time.Since(begin).Seconds()
		if cfg.quick || elapsed+elapsed/float64(jobs) > cfg.seconds {
			return pl, nil
		}
	}
}

// fidelity is min(p,m)/max(p,m): 1 when the model predicted the measured
// rate exactly, 0 when it predicted nothing finite.
func fidelity(predicted, measured float64) float64 {
	if predicted <= 0 || measured <= 0 {
		return 0
	}
	return math.Min(predicted, measured) / math.Max(predicted, measured)
}

// verify drains every tenant's tuned program untimed under both measured
// configurations (tracer off and on), hashing every payload, and checks the
// result against the reference. Along the way it takes the two end-to-end
// metrics that are counts rather than times: the largest live heap any of
// the drains ended with, and heap objects allocated per example.
func verify(in *instance, pl planned, corrupt bool, tl *tally, sp *spanLog, s samples) {
	defer sp.begin("verify")()
	var liveMiB float64
	var objects uint64
	var examples int64
	for i, t := range in.tenants {
		for _, traced := range []bool{false, true} {
			got, want, live, err := verifyGraph(t, in.seed, pl.finals[i], traced, corrupt)
			corrupt = false
			tl.check(fmt.Sprintf("verification of %s (traced %v)", t.cat.Name, traced), got, want, true, 0, err)
			liveMiB = math.Max(liveMiB, live)
		}
		o, got, err := allocPass(t, in.seed, pl.finals[i])
		tl.check("allocation pass of "+t.cat.Name, got, t.ref.times(verifyEpochs), false, 0, err)
		objects, examples = objects+o, examples+got.Examples
	}
	s.add("live_mem_mib", liveMiB)
	s.add("allocs_per_example", float64(objects)/float64(examples))
}
