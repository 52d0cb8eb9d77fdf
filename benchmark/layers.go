package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"plumber"
	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/doctor"
	"plumber/internal/engine"
	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
	"plumber/internal/rewrite"
	"plumber/internal/trace"
)

// microReps is how often each control-path call is repeated for its median.
const microReps = 20

// probeExamples is the least number of examples a truncated-pipeline drain
// covers (it repeats the dataset as often as that takes), so a layer whose
// cost is a fraction of a microsecond per example is still timed over tens
// of milliseconds.
const probeExamples = 1 << 15

// probeReps is how many drains each engine probe takes its median from.
const probeReps = 3

// extra is a measurement that exists on one workload only (doctor re-plan,
// host arbitration); it is printed but not part of the declared metric set.
type extra struct {
	name  string
	value float64
	unit  string
}

// stepwise is the optimizer replayed call by call, which is how the traced
// pass attributes optimize_s to trace, analyze, solve, apply and verify.
type stepwise struct {
	snap       *trace.Snapshot // the planning trace of the untuned graph
	analysis   *ops.Analysis
	plan       *plan.Plan
	traceDrain time.Duration
}

// optimizeStepwise mirrors plumber.Optimize's plan-first path through the
// same exported functions, with a span around each. Greedy refinement after
// a prediction miss is not replayed.
func (in *instance) optimizeStepwise(sp *spanLog) (planned, *stepwise, error) {
	t := in.tenants[0]
	opts := t.options(in.seed)
	opts.Machine = trace.Machine{Cores: in.budget.Cores, MemoryBytes: in.budget.MemoryBytes}
	opts.Caches = engine.NewCacheStore()
	sw := &stepwise{}
	start := time.Now()
	endOptimize := sp.begin("optimize")
	defer endOptimize()

	end := sp.begin("optimize.trace")
	t0 := time.Now()
	snap, err := plumber.Trace(t.untuned, opts)
	sw.traceDrain += time.Since(t0)
	end()
	if err != nil {
		return planned{}, nil, err
	}
	sw.snap = snap

	end = sp.begin("optimize.analyze")
	an, err := plumber.Analyze(snap, t.reg)
	end()
	if err != nil {
		return planned{}, nil, err
	}
	sw.analysis = an

	end = sp.begin("optimize.solve")
	pl, err := plan.Solve(an, in.budget)
	end()
	if err != nil {
		return planned{}, nil, err
	}
	sw.plan = pl

	end = sp.begin("optimize.apply")
	final, trail, err := rewrite.ApplyPlan(t.untuned, pl)
	end()
	if err != nil {
		return planned{}, nil, err
	}

	if len(trail) > 0 {
		end = sp.begin("optimize.verify")
		t0 = time.Now()
		vsnap, err := plumber.Trace(final, opts)
		sw.traceDrain += time.Since(t0)
		if err == nil {
			_, err = plumber.Analyze(vsnap, t.reg)
		}
		end()
		if err != nil {
			return planned{}, nil, err
		}
	}
	verifyCores := in.budget.Cores
	if n := runtime.NumCPU(); t.spec.spin && n < verifyCores {
		verifyCores = n
	}
	predicted := an.PredictObservedRate(pl.Hypothetical(false, verifyCores, in.budget.DiskBandwidth))
	if math.IsInf(predicted, 0) || math.IsNaN(predicted) {
		predicted = 0
	}
	return planned{optimize: time.Since(start), finals: []*pipeline.Graph{final}, predicted: predicted}, sw, nil
}

// prefix returns g's chain from the source up to and including the node
// named last, without cache or repeat nodes (so one drain is one pass over
// the dataset), followed by extra.
func prefix(g *pipeline.Graph, last string, extra ...pipeline.Node) (*pipeline.Graph, error) {
	chain, err := g.Chain()
	if err != nil {
		return nil, err
	}
	var nodes []pipeline.Node
	found := false
	for _, n := range chain {
		if n.Kind != pipeline.KindCache && n.Kind != pipeline.KindRepeat {
			nodes = append(nodes, n)
		}
		if n.Name == last {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("prefix: no node %q", last)
	}
	nodes = append(nodes, extra...)
	for i := range nodes {
		nodes[i].Input = ""
		if i > 0 {
			nodes[i].Input = nodes[i-1].Name
		}
	}
	out := &pipeline.Graph{Nodes: nodes, Output: nodes[len(nodes)-1].Name}
	return out, out.Validate()
}

// probe drains a truncated pipeline on the unthrottled twin with no modeled
// CPU, so what is left is the engine's own cost, and returns the median
// ns per example of probeReps drains. afterFill leaves the first epoch out
// of both the time and the examples: what the later epochs cost.
func probe(sp *spanLog, name string, t *tenant, seed uint64, g *pipeline.Graph, handoff engine.HandoffKind, afterFill bool) (float64, error) {
	defer sp.begin("probe." + name)()
	pass := t.cat.TotalExamples()
	epochs := int(probeExamples/pass) + 1
	if afterFill {
		epochs++
	}
	rg, err := withEpochs(g, epochs)
	if err != nil {
		return 0, err
	}
	var ns []float64
	for i := 0; i < probeReps; i++ {
		runtime.GC()
		d, err := drainGraph(rg, engine.Options{FS: t.twin, UDFs: t.reg, Seed: seed, Handoff: handoff}, drainOpts{fillCount: t.fillCount()})
		if err != nil {
			return 0, err
		}
		if want := pass * int64(epochs); d.sum.Examples != want {
			return 0, fmt.Errorf("probe %s delivered %d examples, want %d", name, d.sum.Examples, want)
		}
		wall, examples := d.wall, d.sum.Examples
		if afterFill {
			wall, examples = wall-d.fill, examples-pass
		}
		ns = append(ns, float64(wall.Nanoseconds())/float64(examples))
	}
	return median(ns), nil
}

// engineProbes measures the engine stage by stage: drains of the tuned
// graph truncated after each stage, differenced.
func engineProbes(sp *spanLog, s samples, t *tenant, seed uint64, final *pipeline.Graph) error {
	root, err := final.Node(final.Output)
	if err != nil {
		return err
	}
	prefetch := pipeline.Node{Name: "probe_prefetch", Kind: pipeline.KindPrefetch, BufferSize: 8}
	if root.Kind == pipeline.KindPrefetch {
		prefetch = root
	}
	var prev float64
	for _, st := range []struct {
		metric string
		last   string
		extra  []pipeline.Node
	}{
		{"engine.source_ns_per_example", "src", nil},
		{"engine.map_ns_per_example", "decode", nil},
		{"engine.batch_ns_per_example", "batch", nil},
		{"engine.prefetch_ns_per_example", "batch", []pipeline.Node{prefetch}},
	} {
		g, err := prefix(final, st.last, st.extra...)
		if err != nil {
			return err
		}
		ns, err := probe(sp, st.metric, t, seed, g, engine.HandoffRing, false)
		if err != nil {
			return err
		}
		s.add(st.metric, ns-prev)
		prev = ns
	}
	s.add("engine.handoff_ring_ns_per_example", prev)

	whole, err := prefix(final, "batch", prefetch)
	if err != nil {
		return err
	}
	ns, err := probe(sp, "engine.handoff_channel_ns_per_example", t, seed, whole, engine.HandoffChannel, false)
	if err != nil {
		return err
	}
	s.add("engine.handoff_channel_ns_per_example", ns)

	// Epochs 2..k of the chain with a cache above the batch: what serving
	// one example from the cache costs.
	cached, err := prefix(final, "batch", pipeline.Node{Name: "probe_cache", Kind: pipeline.KindCache})
	if err != nil {
		return err
	}
	if ns, err = probe(sp, "engine.cache_serve_ns_per_example", t, seed, cached, engine.HandoffRing, true); err != nil {
		return err
	}
	s.add("engine.cache_serve_ns_per_example", ns)
	return nil
}

// connectorProbe reads every shard once through the workload's connector,
// with no engine above it. On a throttled device it reads the unthrottled
// twin too; the difference is time spent waiting for the token bucket.
func connectorProbe(sp *spanLog, s samples, t *tenant) error {
	defer sp.begin("probe.connector")()
	readAll := func(c connector.Connector) (time.Duration, int64, error) {
		buf := make([]byte, 64<<10)
		var total int64
		start := time.Now()
		for _, path := range c.List() {
			r, err := c.Open(path)
			if err != nil {
				return 0, 0, err
			}
			for {
				n, err := r.Read(buf)
				total += int64(n)
				if err == io.EOF {
					break
				}
				if err != nil {
					r.Close()
					return 0, 0, err
				}
			}
			r.Close()
		}
		return time.Since(start), total, nil
	}
	wall, n, err := readAll(t.src)
	if err != nil {
		return err
	}
	epochExamples := float64(t.cat.TotalExamples())
	s.add("connector.read_ns_per_example", float64(wall.Nanoseconds())/epochExamples)
	s.add("connector.read_mib_per_s", float64(n)/(1<<20)/wall.Seconds())
	s.add("connector.bytes_read", float64(n))
	wait := 0.0
	if t.twin != t.src {
		free, _, err := readAll(t.twin)
		if err != nil {
			return err
		}
		wait = math.Max(0, 1-free.Seconds()/wall.Seconds())
	}
	s.add("simfs.throttle_wait_fraction", wait)
	return nil
}

// dataProbe decodes every shard's framed bytes from memory with pooled
// buffers, and times the buffer pool on its own.
func dataProbe(sp *spanLog, s samples, t *tenant) error {
	defer sp.begin("probe.data")()
	var shards [][]byte
	for _, path := range t.twin.List() {
		r, err := t.twin.Open(path)
		if err != nil {
			return err
		}
		b, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			return err
		}
		shards = append(shards, b)
	}
	runtime.GC()
	var records int64
	allocs0 := heapAllocs()
	start := time.Now()
	for _, b := range shards {
		rr := data.NewRecordReader(bytes.NewReader(b))
		rr.SetPooling(true)
		for {
			p, err := rr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			records++
			data.PutBuf(p)
		}
	}
	wall := time.Since(start)
	allocs := heapAllocs() - allocs0
	if records != t.cat.TotalExamples() {
		return fmt.Errorf("data probe decoded %d records, want %d", records, t.cat.TotalExamples())
	}
	s.add("data.decode_ns_per_record", float64(wall.Nanoseconds())/float64(records))
	s.add("data.decode_allocs_per_record", float64(allocs)/float64(records))

	const cycles = 1 << 17
	size := int(t.spec.recordBytes)
	start = time.Now()
	for i := 0; i < cycles; i++ {
		data.PutBuf(data.GetBuf(size))
	}
	s.add("data.pool_getput_ns", float64(time.Since(start).Nanoseconds())/cycles)
	return nil
}

// controlProbes times the planner's pure functions on the planning trace.
func controlProbes(sp *spanLog, s samples, in *instance, sw *stepwise) error {
	defer sp.begin("probe.control")()
	t := in.tenants[0]
	timeMedian := func(f func() error) (float64, error) {
		var ms []float64
		for i := 0; i < microReps; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			ms = append(ms, time.Since(start).Seconds()*1e3)
		}
		return median(ms), nil
	}
	for _, c := range []struct {
		metric string
		call   func() error
	}{
		{"ops.analyze_ms", func() error { _, err := ops.Analyze(sw.snap, t.reg); return err }},
		{"plan.solve_ms", func() error { _, err := plan.Solve(sw.analysis, in.budget); return err }},
		{"rewrite.apply_ms", func() error { _, _, err := rewrite.ApplyPlan(t.untuned, sw.plan); return err }},
	} {
		ms, err := timeMedian(c.call)
		if err != nil {
			return fmt.Errorf("%s: %w", c.metric, err)
		}
		s.add(c.metric, ms)
	}
	s.add("plumber.untuned_minibatches_per_s", sw.analysis.ObservedRate)
	return nil
}

// snapshotProbe times the product tracer's read side on a collector that has
// just watched a whole drain.
func snapshotProbe(s samples, take func() *trace.Snapshot) error {
	var ms []float64
	var last *trace.Snapshot
	for i := 0; i < microReps; i++ {
		start := time.Now()
		last = take()
		ms = append(ms, time.Since(start).Seconds()*1e3)
	}
	b, err := last.Marshal()
	if err != nil {
		return err
	}
	s.add("trace.snapshot_ms", median(ms))
	s.add("trace.snapshot_bytes", float64(len(b)))
	return nil
}

// countProbes reads the handoff and retry counts the engine published into
// the traced drain's snapshot(s).
func countProbes(s samples, snaps []*trace.Snapshot) {
	var parks, steals, retries int64
	for _, snap := range snaps {
		for _, ns := range snap.Nodes {
			parks += ns.HandoffParks
			steals += ns.HandoffSteals
			retries += ns.Retries
		}
	}
	s.add("engine.handoff_parks", float64(parks))
	s.add("engine.handoff_steals", float64(steals))
	s.add("connector.retries", float64(retries))
}

// gapStats summarizes the time between consecutive minibatches.
func gapStats(s samples, out io.Writer, gapsUS []float64) {
	pct, tail := tailPercentile(gapsUS)
	s.add("consumer.next_gap_p50_us", median(gapsUS))
	s.add("consumer.next_gap_tail_us", tail)
	max := 0.0
	for _, g := range gapsUS {
		max = math.Max(max, g)
	}
	s.add("consumer.max_gap_ms", max/1e3)
	fmt.Fprintf(out, "consumer gaps: %d samples, tail is p%.2f\n", len(gapsUS), pct)
}

// reconfigureProbe drains two epochs of the tuned program under the measured
// configuration with a collector attached. After the first minibatch a
// second goroutine hot-applies the program the pipeline is already running,
// which makes the engine quiesce, tear down, rebuild and resume without
// changing what the stream costs; eight times per epoch the consumer steps a
// doctor (diagnose only, no re-plan, so it may run on the consumer).
//
// The call comes that early so that the source still has files to read. If
// it has none left at the barrier, the engine resumes by replaying the
// epoch (ResumedPartialFiles and ResumedPendingFiles both 0, one epoch too
// many delivered) — a defect this probe found on catalogs small enough to
// sit in the stage buffers whole. The probe then keeps its timings and skips
// its count check; what a hot-apply delivers is checked by the retune
// workload, whose source is disk-bound and never ahead.
func reconfigureProbe(sp *spanLog, s samples, out io.Writer, in *instance, t *tenant, final *pipeline.Graph) error {
	defer sp.begin("probe.reconfigure")()
	const epochs = 2
	g, err := withEpochs(final, epochs)
	if err != nil {
		return err
	}
	col, err := trace.NewCollector(g, trace.Machine{Name: "bench", Cores: in.budget.Cores})
	if err != nil {
		return err
	}
	t.src.AddObserver(col)
	defer t.src.RemoveObserver(col)

	var (
		pipe     *engine.Pipeline
		doc      *doctor.Doctor
		stepsMS  []float64
		report   engine.ReconfigReport
		reconErr error
	)
	done := make(chan struct{})
	stepEvery := t.fillCount() / 8
	if stepEvery < 1 {
		stepEvery = 1
	}
	opts := drainOpts{gaps: true}
	opts.onPipeline = func(p *engine.Pipeline) {
		pipe = p
		doc = doctor.New(p, col, doctor.Config{Budget: in.budget, UDFs: t.reg, TotalFiles: t.cat.NumFiles})
	}
	opts.onDelivered = func(n int64) {
		if n == 1 {
			calling := make(chan struct{})
			go func() {
				defer close(done)
				patch := engine.Patch{Graph: pipe.Graph()}
				close(calling)
				report, reconErr = pipe.Reconfigure(patch)
			}()
			// The consumer must not run ahead of the call it is timing.
			<-calling
			runtime.Gosched()
		}
		if n <= t.fillCount() && n%stepEvery == 0 {
			start := time.Now()
			doc.Step()
			stepsMS = append(stepsMS, time.Since(start).Seconds()*1e3)
		}
	}
	d, err := drainGraph(g, measuredOptions(t, in.seed, col), opts)
	if d.sum.Minibatches > 0 {
		<-done
	}
	if err != nil {
		return err
	}
	if reconErr != nil {
		return fmt.Errorf("reconfigure probe: %w", reconErr)
	}
	want := t.ref.times(epochs)
	switch {
	case report.ResumedPartialFiles+report.ResumedPendingFiles == 0:
		fmt.Fprintf(out, "note: the reconfigure probe's barrier found the source exhausted; delivered %d examples for %d (the engine replays the epoch), count check skipped\n", d.sum.Examples, want.Examples)
	case d.sum.Examples != want.Examples || d.sum.Bytes != want.Bytes:
		return fmt.Errorf("reconfigure probe delivered %+v, reference %+v", d.sum, want)
	}
	gap := 0.0
	for _, g := range d.gapsUS[1:] {
		gap = math.Max(gap, g)
	}
	addReconfig(s, report, gap)
	s.add("doctor.step_ms", median(stepsMS))
	return nil
}

func addReconfig(s samples, r engine.ReconfigReport, maxGapUS float64) {
	s.add("engine.reconfigure_quiesce_ms", r.QuiesceDuration.Seconds()*1e3)
	s.add("engine.reconfigure_apply_ms", r.ApplyDuration.Seconds()*1e3)
	s.add("engine.reconfigure_gap_ms", maxGapUS/1e3)
	s.add("engine.inflight_preserved", float64(r.DrainedInFlight))
}

// modeledCPUSeconds is the modeled decode CPU the job burns: one pass over
// the dataset per optimizer trace and per epoch that is not served from a
// cache, zero if the workload only accounts its cost.
func modeledCPUSeconds(in *instance, pl planned, traces int) float64 {
	var total float64
	for i, t := range in.tenants {
		if !t.spec.spin {
			continue
		}
		u, err := t.reg.Lookup(decodeUDF)
		if err != nil {
			continue
		}
		perPass := float64(t.ref.Examples) * u.Cost.CPUSeconds(t.ref.Bytes/t.ref.Examples/int64(math.Max(1, t.spec.amplification)))
		passes := traces + t.spec.epochs
		for _, n := range pl.finals[i].Nodes {
			if n.Kind == pipeline.KindCache {
				passes = traces + 1
			}
		}
		total += perPass * float64(passes)
	}
	return total
}

// tracedPass is the --trace 1 run: one plain job for reference, the same job
// replayed with a span around every call into a layer, one drain with the
// product's collector attached, and the per-layer probes on the first
// tenant's tuned program.
func tracedPass(in *instance, tl *tally, sp *spanLog, s samples, out io.Writer) ([]extra, planned, error) {
	t := in.tenants[0]
	want := in.want()

	// The plain job: tracing of every kind off.
	pl, err := in.optimize()
	if err != nil {
		return nil, pl, err
	}
	plain, err := in.deliver(pl, false, false, nil)
	tl.checkDelivery("plain job", plain, want, err)
	if err != nil {
		return nil, pl, err
	}
	plainJob := pl.optimize + plain.wall
	traces := len(in.tenants) // the arbiter traces every tenant once
	if pl.result != nil {
		traces = pl.result.TracesUsed
		if traces > 2 {
			fmt.Fprintf(out, "note: the optimizer refined after a prediction miss (%d traces); the replay covers the plan-first path only\n", traces)
		}
	}

	// The replay: the same job, a span around every call.
	endJob := sp.begin("job")
	var rp planned
	var sw *stepwise
	if in.def.kind == kindTwoTenant {
		end := sp.begin("arbitrate")
		rp, err = in.optimize()
		end()
	} else {
		rp, sw, err = in.optimizeStepwise(sp)
	}
	if err != nil {
		return nil, pl, err
	}
	replay, err := in.deliver(rp, false, false, sp)
	endJob()
	tl.checkDelivery("replayed job", replay, want, err)
	if err != nil {
		return nil, pl, err
	}
	replayJob := rp.optimize + replay.wall

	// The product's tracer on.
	end := sp.begin("traced_drain")
	traced, err := in.deliver(pl, true, in.def.kind != kindTwoTenant, nil)
	end()
	tl.checkDelivery("traced drain", traced, want, err)
	if err != nil {
		return nil, pl, err
	}

	s.add("bench.span_overhead_fraction", replayJob.Seconds()/plainJob.Seconds()-1)
	s.add("trace.overhead_fraction", 1-traced.rate()/plain.rate())
	s.add("engine.cpu_ns_per_example", float64(plain.cpu.Nanoseconds())/float64(plain.sum.Examples))
	s.add("udf.share_of_job", modeledCPUSeconds(in, pl, traces)/plainJob.Seconds())
	s.add("plumber.traces_used", float64(traces))
	u, _ := t.reg.Lookup(decodeUDF)
	extras := []extra{
		{"udf.modeled_ns_per_example", u.Cost.CPUSeconds(t.spec.recordBytes) * 1e9, "ns"},
		{"job_s(plain)", plainJob.Seconds(), "s"},
		{"job_s(replayed)", replayJob.Seconds(), "s"},
		{"optimize_s(plain)", pl.optimize.Seconds(), "s"},
		{"optimize_s(replayed)", rp.optimize.Seconds(), "s"},
	}

	final := pl.finals[0]
	if in.def.kind == kindTwoTenant {
		var solo drained
		if solo, sw, err = soloProbes(in, tl, sp, s, pl); err != nil {
			return nil, pl, err
		}
		gapStats(s, out, solo.gapsUS)
		s.add("engine.startup_ms", solo.startup.Seconds()*1e3)
		var snaps []*trace.Snapshot
		for _, snap := range traced.report.Snapshots {
			snaps = append(snaps, snap)
		}
		countProbes(s, snaps)
		extras = append(extras, hostExtras(pl, plain)...)
	} else {
		gapStats(s, out, traced.gapsUS)
		s.add("engine.startup_ms", plain.startup.Seconds()*1e3)
		s.add("plumber.trace_drain_s", sw.traceDrain.Seconds())
		s.add("plan.cache_bytes_planned", sw.plan.CacheBytes)
		s.add("plan.cores_planned", float64(sw.plan.CoresPlanned))
		if err := snapshotProbe(s, traced.snapshot); err != nil {
			return nil, pl, err
		}
		countProbes(s, []*trace.Snapshot{traced.snapshot()})
	}

	if rt := traced.retune; rt != nil {
		if rt.reconfig == nil {
			return nil, pl, fmt.Errorf("retune: the doctor never hot-applied a plan (%s)", rt.rejected)
		}
		addReconfig(s, *rt.reconfig, rt.maxGapUS)
		var ms []float64
		for _, d := range rt.steps {
			ms = append(ms, d.Seconds()*1e3)
		}
		s.add("doctor.step_ms", median(ms))
		extras = append(extras,
			extra{"doctor.detect_ms", rt.detect.Seconds() * 1e3, "ms"},
			extra{"doctor.replan_ms", rt.replan.Seconds() * 1e3, "ms"},
			extra{"doctor.replans", float64(rt.replans), "count"})
	} else if err := reconfigureProbe(sp, s, out, in, t, final); err != nil {
		return nil, pl, err
	}

	parallel := plain.rate()
	if in.def.singleP {
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		end := sp.begin("probe.parallel")
		d, err := in.deliver(pl, false, false, nil)
		end()
		runtime.GOMAXPROCS(prev)
		tl.checkDelivery("parallel drain", d, want, err)
		if err != nil {
			return nil, pl, err
		}
		parallel = d.rate()
	}
	s.add("engine.parallel_minibatches_per_s", parallel)

	for _, probe := range []func() error{
		func() error { return connectorProbe(sp, s, t) },
		func() error { return dataProbe(sp, s, t) },
		func() error { return engineProbes(sp, s, t, in.seed, final) },
		func() error { return controlProbes(sp, s, in, sw) },
	} {
		if err := probe(); err != nil {
			return nil, pl, err
		}
	}

	// share_of_job: each per-example layer cost over the examples one job
	// delivers, as a share of the job's wall time.
	fmt.Fprintln(out, "share of job (layer ns_per_example x examples delivered / job_s):")
	for _, d := range perLayer {
		if d.unit == "ns" && d.name != "data.pool_getput_ns" {
			share := s[d.name][0] * float64(plain.sum.Examples) / 1e9 / plainJob.Seconds()
			fmt.Fprintf(out, "  %-38s %8.4f\n", d.name, share)
		}
	}
	return extras, pl, nil
}

// soloProbes covers what RunConcurrent hides. It drains inside the product
// and keeps its consumers and collectors, so the consumer's gaps and the
// snapshot cost are taken from a traced drain of the first tenant's share
// on its own, and the planning trace the control-path probes need is taken
// again here.
func soloProbes(in *instance, tl *tally, sp *spanLog, s samples, pl planned) (drained, *stepwise, error) {
	t, final := in.tenants[0], pl.finals[0]
	col, err := trace.NewCollector(final, trace.Machine{Name: "bench", Cores: in.budget.Cores})
	if err != nil {
		return drained{}, nil, err
	}
	t.src.AddObserver(col)
	defer t.src.RemoveObserver(col)
	end := sp.begin("solo_drain")
	solo, err := drainGraph(final, measuredOptions(t, in.seed, col), drainOpts{gaps: true})
	end()
	tl.check("solo drain", solo.sum, t.ref, false, 0, err)
	if err != nil {
		return solo, nil, err
	}
	if err := snapshotProbe(s, func() *trace.Snapshot { return col.Snapshot(solo.wall, t.cat.NumFiles) }); err != nil {
		return solo, nil, err
	}

	end = sp.begin("optimize.trace")
	start := time.Now()
	snap, err := plumber.Trace(t.untuned, t.options(in.seed))
	s.add("plumber.trace_drain_s", time.Since(start).Seconds())
	end()
	if err != nil {
		return solo, nil, err
	}
	an, err := plumber.Analyze(snap, t.reg)
	if err != nil {
		return solo, nil, err
	}
	var cache float64
	var cores int
	for _, sh := range pl.decision.Shares {
		cache += sh.Plan.CacheBytes
		cores += sh.Plan.CoresPlanned
	}
	s.add("plan.cache_bytes_planned", cache)
	s.add("plan.cores_planned", float64(cores))
	return solo, &stepwise{snap: snap, analysis: an, plan: pl.decision.Shares[0].Plan}, nil
}

// hostExtras reports the arbitration and the pool's accounting.
func hostExtras(pl planned, d delivery) []extra {
	out := []extra{{"host.arbitrate_ms", pl.optimize.Seconds() * 1e3, "ms"}}
	total := 0
	for _, sh := range pl.decision.Shares {
		total += sh.Budget.Cores
	}
	var shareErr float64
	var borrows int64
	for i, ms := range d.report.Tenants {
		out = append(out, extra{fmt.Sprintf("host.tenant_%c_minibatches_per_s", 'a'+i), ms.MeasuredMinibatchesPerSec, "1/s"})
		if total > 0 {
			shareErr = math.Max(shareErr, math.Abs(ms.HeldShareFraction-float64(ms.ShareCores)/float64(total)))
		}
		borrows += ms.Borrows
	}
	return append(out,
		extra{"host.held_share_error", shareErr, "ratio"},
		extra{"host.borrows", float64(borrows), "count"})
}
