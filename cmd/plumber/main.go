// Command plumber is the CLI over the plumber façade: trace a pipeline into
// a snapshot, analyze a snapshot into resource-accounted rates, plan from a
// snapshot (plumber.Plan), or trace and plan in one call (plumber.Optimize).
//
// Usage:
//
//	plumber trace    [-graph graph.json] [-out snapshot.json] [workload flags]
//	plumber analyze  -snap snapshot.json [-out analysis.json]
//	plumber plan     -snap snapshot.json [-out plan.json] [-apply planned-graph.json] [budget flags]
//	plumber optimize [-graph graph.json] [-out tuner.json] [budget flags] [workload flags]
//	plumber arbitrate [-tenants vision,tiny-files] [-weights 1,1] [-run] [-out arbiter.json] [budget flags]
//	plumber watch    [-duration 6s] [-ramp-after 2s] [-ramp-mbps 8] [-min-replans N] [budget flags]
//
// watch runs the demo chain on a throttled simulated device with the live
// doctor attached: every interval it differences the trace counters, prints
// per-stage rates, the bottleneck, and heuristic diagnoses, and hot-applies
// a fresh plan through the quiesce/patch/resume lifecycle when the measured
// rate drifts from the baseline. -ramp-after/-ramp-mbps inject a delivered-
// bandwidth change mid-run (the canonical drift); -min-replans N makes the
// exit status assert that at least N replans fired.
//
// arbitrate admits canonical scenario workloads (internal/scenario) as
// tenants of one shared resource envelope, traces each once, solves the
// cross-tenant core/memory split by water-filling on predicted rate curves,
// and reports each tenant's materialized share next to the static
// even-split baseline. With -run it then executes every tenant
// simultaneously on one shared engine worker pool (spin on, in-flight
// workers capped at the arbitrated core share, work-conserving borrowing)
// and reports the measured under-contention rates next to the predictions,
// including each tenant's failure-isolation status (ok / degraded /
// stalled / failed), retry counters, and any share reclaims; the output
// JSON then wraps {"decision": ..., "concurrent_run": ...}.
//
// plan is the deciding half of optimize over a snapshot file: it starts no
// trace, and from a snapshot it plans the program and prediction optimize
// plans from the same trace. A snapshot carries no UDF registry, so plan
// treats every UDF as deterministic for cache legality, as analyze does.
//
// Budget flags are -cores N, -memory-mb M, -bw-mbps B. The workload flags
// (-files, -records-per-file, -record-bytes, -batch, -udf-cpu-us, -seed,
// and -backend, the storage connector) fill one scenario.Spec, and trace,
// optimize and watch build it through scenario.Build: an all-sequential
// source → map → batch chain over a synthetic catalog. A walkthrough:
//
//	plumber trace -out snap.json              # run instrumented, dump counters + program
//	plumber analyze -snap snap.json           # rates, capacities, cache legality
//	plumber plan -snap snap.json -out p.json  # the snapshot -> joint allocation, rewrite, prediction
//	plumber optimize -out tuner.json          # 1 settled trace -> the same plan, in one call
//
// A -graph program replaces the chain and must read the flags' catalog.
// UDF names in it that the workload's registry does not know are registered
// as cost-model UDFs costing -udf-cpu-us microseconds per element, so
// serialized programs from other tools remain runnable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"plumber"
	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/scenario"
	"plumber/internal/stats"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

// specFlags registers the flags that describe the demo workload — the
// synthetic catalog and its source → decode map → batch chain — and returns
// a func that reads them into one scenario.Spec after Parse. trace,
// optimize and watch all build that Spec through scenario.Build.
func specFlags(fs *flag.FlagSet) func() scenario.Spec {
	s := scenario.Spec{Name: "cli"}
	fs.IntVar(&s.Files, "files", 4, "synthetic catalog: shard count")
	fs.IntVar(&s.RecordsPerFile, "records-per-file", 512, "synthetic catalog: records per shard")
	fs.Int64Var(&s.MeanRecordBytes, "record-bytes", 1024, "synthetic catalog: mean record size")
	fs.IntVar(&s.BatchSize, "batch", 32, "demo chain: batch size")
	udfCPUMicros := fs.Float64("udf-cpu-us", 20, "modeled UDF cost in CPU-microseconds per element (0 omits the map)")
	fs.Uint64Var(&s.Seed, "seed", 42, "seed for shard content and shuffles (0 means 42)")
	return func() scenario.Spec {
		s.DecodeCPUPerElement = *udfCPUMicros * 1e-6
		return s
	}
}

// workload bundles the flags shared by trace and optimize.
type workload struct {
	spec      func() scenario.Spec
	graphPath string
	backend   string
	opts      plumber.Options
}

func (w *workload) register(fs *flag.FlagSet) {
	w.spec = specFlags(fs)
	fs.StringVar(&w.graphPath, "graph", "", "serialized pipeline program to load (default: build the demo chain)")
	fs.StringVar(&w.backend, "backend", "simfs", "storage connector serving the shards: simfs, localfs, or objectstore")
	fs.Float64Var(&w.opts.WorkScale, "workscale", 1, "scale factor on modeled CPU time (0 disables CPU modeling)")
	fs.BoolVar(&w.opts.Spin, "spin", false, "burn modeled CPU for real so wallclock reflects the cost model")
	fs.Int64Var(&w.opts.MaxMinibatches, "minibatches", 0, "hard cap on each trace drain, in minibatches (0 = none)")
}

// setup builds the flags' workload through scenario.Build and, with -graph,
// loads the program that replaces its chain. The returned cleanup releases
// backend resources (the localfs temp dir); on error setup has released them.
func (w *workload) setup() (*pipeline.Graph, plumber.Options, func(), error) {
	spec := w.spec()
	spec.Backend = w.backend
	wl, err := scenario.Build(spec)
	if err != nil {
		return nil, w.opts, nil, err
	}
	cleanup := func() {}
	if wl.Cleanup != nil {
		cleanup = wl.Cleanup
	}
	g := wl.Graph
	if w.graphPath != "" {
		if g, err = loadGraph(w.graphPath, wl); err != nil {
			cleanup()
			return nil, w.opts, nil, err
		}
	}
	opts := w.opts
	opts.Source, opts.UDFs, opts.Seed = wl.Source, wl.Registry, wl.Spec.Seed
	return g, opts, cleanup, nil
}

// loadGraph reads a serialized program to run over wl's catalog. UDFs the
// workload's registry does not know become cost-model stand-ins costing
// -udf-cpu-us per element.
func loadGraph(path string, wl *scenario.Workload) (*pipeline.Graph, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := pipeline.Unmarshal(b)
	if err != nil {
		return nil, err
	}
	cost := udf.Cost{CPUPerElement: wl.Spec.DecodeCPUPerElement, SizeFactor: 1}
	for _, n := range g.Nodes {
		if n.UDF == "" {
			continue
		}
		if _, err := wl.Registry.Lookup(n.UDF); err != nil {
			if err := wl.Registry.Register(udf.UDF{Name: n.UDF, Cost: cost}); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "trace":
		err = runTrace(os.Args[2:])
	case "analyze":
		err = runAnalyze(os.Args[2:])
	case "plan":
		err = runPlan(os.Args[2:])
	case "optimize":
		err = runOptimize(os.Args[2:])
	case "arbitrate":
		err = runArbitrate(os.Args[2:])
	case "watch":
		err = runWatch(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "plumber: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "plumber %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  plumber trace    [-graph graph.json] [-out snapshot.json] [workload flags]
  plumber analyze  -snap snapshot.json [-out analysis.json]
  plumber plan     -snap snapshot.json [-out plan.json] [-apply planned-graph.json] [-cores N] [-memory-mb M] [-bw-mbps B]
  plumber optimize [-graph graph.json] [-out tuner.json] [-cores N] [-memory-mb M] [-bw-mbps B] [workload flags]
  plumber arbitrate [-tenants vision,tiny-files] [-weights 1,1] [-run] [-out arbiter.json] [-quick] [-cores N] [-memory-mb M] [-bw-mbps B]
  plumber watch    [-duration 6s] [-interval 500ms] [-drift 0.3] [-ramp-after 2s] [-ramp-mbps 8] [-min-replans N] [-out watch.json] [budget flags]

run "plumber <subcommand> -h" for the full flag list`)
}

func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var w workload
	w.register(fs)
	out := fs.String("out", "snapshot.json", "output path for the snapshot JSON")
	fs.Parse(args)

	g, opts, cleanup, err := w.setup()
	if err != nil {
		return err
	}
	defer cleanup()
	snap, err := plumber.Trace(g, opts)
	if err != nil {
		return err
	}
	b, err := snap.Marshal()
	if err != nil {
		return err
	}
	if err := writeFile(*out, b); err != nil {
		return err
	}
	root, err := snap.RootStats()
	if err != nil {
		return err
	}
	fmt.Printf("traced %d minibatches over %v (%d files observed); wrote %s\n",
		root.ElementsProduced, snap.Duration.Round(0), len(snap.Files), *out)
	return nil
}

func runAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	snapPath := fs.String("snap", "", "snapshot JSON produced by plumber trace (required)")
	out := fs.String("out", "", "optional output path for the analysis JSON")
	fs.Parse(args)
	snap, err := readSnapshot(*snapPath)
	if err != nil {
		return err
	}
	// A standalone snapshot carries no UDF registry; UDFs are treated as
	// deterministic for cache legality.
	an, err := plumber.Analyze(snap, nil)
	if err != nil {
		return err
	}
	printAnalysis(an)
	if *out != "" {
		doc := analysisDoc(an)
		j, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFile(*out, j); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

// readSnapshot reads the snapshot file a -snap flag names.
func readSnapshot(path string) (*trace.Snapshot, error) {
	if path == "" {
		return nil, fmt.Errorf("-snap is required")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return trace.UnmarshalSnapshot(b)
}

// analysisNodeDoc is the JSON view of one analyzed Dataset (Inf-free).
type analysisNodeDoc struct {
	Name              string  `json:"name"`
	Kind              string  `json:"kind"`
	Parallelism       int     `json:"parallelism"`
	VisitRatio        float64 `json:"visit_ratio"`
	RatePerCore       float64 `json:"rate_per_core,omitempty"`
	ScaledCapacity    float64 `json:"scaled_capacity,omitempty"`
	MaterializedBytes float64 `json:"materialized_bytes,omitempty"`
	Cacheable         bool    `json:"cacheable"`
	CacheVeto         string  `json:"cache_veto,omitempty"`
}

func analysisDoc(an *ops.Analysis) map[string]any {
	nodes := make([]analysisNodeDoc, 0, len(an.Nodes))
	for _, n := range an.Nodes {
		nodes = append(nodes, analysisNodeDoc{
			Name:              n.Name,
			Kind:              string(n.Kind),
			Parallelism:       n.Parallelism,
			VisitRatio:        n.VisitRatio,
			RatePerCore:       stats.FiniteOrZero(n.Rate),
			ScaledCapacity:    stats.FiniteOrZero(n.ScaledCapacity),
			MaterializedBytes: stats.FiniteOrZero(n.MaterializedBytes),
			Cacheable:         n.Cacheable,
			CacheVeto:         n.CacheVeto,
		})
	}
	return map[string]any{
		"observed_minibatches_per_sec": an.ObservedRate,
		"dataset_bytes":                an.DatasetBytes,
		"observed_files":               an.ObservedFiles,
		"total_files":                  an.TotalFiles,
		"bottleneck":                   an.Bottleneck().Name,
		"nodes":                        nodes,
	}
}

func printAnalysis(an *ops.Analysis) {
	fmt.Printf("observed rate: %.1f minibatches/s   dataset: %.0f bytes (%d/%d files observed)\n",
		an.ObservedRate, an.DatasetBytes, an.ObservedFiles, an.TotalFiles)
	fmt.Printf("bottleneck: %s\n\n", an.Bottleneck().Name)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "node\tkind\tpar\tvisit\trate/core\tcapacity\tcacheable\tmaterialized")
	for _, n := range an.Nodes {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%s\t%s\t%v\t%s\n",
			n.Name, n.Kind, n.Parallelism, n.VisitRatio,
			fmtRate(n.Rate), fmtRate(n.ScaledCapacity), n.Cacheable, fmtBytes(n.MaterializedBytes))
	}
	tw.Flush()
}

// budgetFlags registers the shared resource-budget flags; the returned
// func reads them after Parse.
func budgetFlags(fs *flag.FlagSet) func() plumber.Budget {
	cores := fs.Int("cores", 4, "core budget")
	memoryMB := fs.Int64("memory-mb", 256, "cache memory budget in MiB (0 disables caching)")
	bwMBps := fs.Float64("bw-mbps", 0, "disk bandwidth budget in MB/s (0 = unbounded)")
	return func() plumber.Budget {
		return plumber.Budget{Cores: *cores, MemoryBytes: *memoryMB << 20, DiskBandwidth: *bwMBps * 1e6}
	}
}

// runPlan plans from a snapshot file, as Optimize plans from its own trace;
// it starts no trace.
func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	snapPath := fs.String("snap", "", "snapshot JSON produced by plumber trace (required)")
	out := fs.String("out", "plan.json", "output path for the plan report JSON")
	applyOut := fs.String("apply", "", "optional output path for the planned (rewritten) graph JSON")
	budget := budgetFlags(fs)
	fs.Parse(args)

	snap, err := readSnapshot(*snapPath)
	if err != nil {
		return err
	}
	// A standalone snapshot carries no UDF registry; UDFs are treated as
	// deterministic for cache legality.
	res, err := plumber.Plan(snap, nil, budget())
	if err != nil {
		return err
	}
	if err := report(res, *out); err != nil {
		return err
	}
	if *applyOut != "" {
		b, err := res.Final.Marshal()
		if err != nil {
			return err
		}
		if err := writeFile(*applyOut, b); err != nil {
			return err
		}
		fmt.Printf("wrote the planned graph to %s\n", *applyOut)
	}
	return nil
}

func runOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	var w workload
	w.register(fs)
	out := fs.String("out", "tuner.json", "output path for the tuner report JSON")
	budget := budgetFlags(fs)
	fs.Parse(args)

	g, opts, cleanup, err := w.setup()
	if err != nil {
		return err
	}
	defer cleanup()
	res, err := plumber.Optimize(g, budget(), opts)
	if err != nil {
		return err
	}
	return report(res, *out)
}

// report prints a plan — what its trace saw, the allocation, and the one
// prediction for the planned program — and writes the Result as JSON to out.
// plan and optimize both print through it.
func report(res *plumber.Result, out string) error {
	for _, s := range res.Steps {
		fmt.Printf("traced %.1f minibatches/s, bottleneck %s (capacity %.1f); ceiling under the budget %.1f (0 = unbounded)\n",
			s.ObservedMinibatchesPerSec, s.Bottleneck, s.BottleneckCapacity, s.CapacityCeiling)
		fmt.Printf("its trace: %s\n", traceCost(s.Run))
	}
	b, pl := res.Budget, res.Plan
	fmt.Printf("planned allocation (budget: %d cores, %d MiB, efficiency %.2f):\n", b.Cores, b.MemoryBytes>>20, pl.Efficiency)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "node\tkind\tparallelism\tplanned")
	for _, n := range res.Initial.Nodes {
		cur := n.EffectiveParallelism()
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", n.Name, n.Kind, cur, pl.ParallelismFor(n.Name, cur))
	}
	tw.Flush()
	if pl.CacheAbove != "" {
		fmt.Printf("cache above %q (%.0f bytes/replica)\n", pl.CacheAbove, pl.CacheBytes)
	}
	if pl.PrefetchBuffer > 0 {
		fmt.Printf("prefetch(%d) at the root\n", pl.PrefetchBuffer)
	}
	if pl.OuterParallelism > 1 {
		fmt.Printf("outer parallelism %d\n", pl.OuterParallelism)
	}
	if res.PredictedMinibatchesPerSec > 0 {
		fmt.Printf("predicted %.1f minibatches/s for the planned program's first epoch; nothing here ran it — `plumber watch` (the doctor) holds a running job against its prediction\n",
			res.PredictedMinibatchesPerSec)
	}

	j, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFile(out, j); err != nil {
		return err
	}
	fmt.Printf("%d rewrites planned, %d traces taken; wrote %s\n", len(res.Trail), res.TracesUsed, out)
	return nil
}

// traceCost says what one trace cost and how it ended. A trace cut on its
// batch's stream ends between two minibatches: its cut is in examples.
func traceCost(r trace.Run) string {
	end := "ran to the end of the pass (or its cap)"
	switch {
	case r.Settled && r.Stage != "":
		end = fmt.Sprintf("settled, cut after %d examples into %s", r.Cut, r.Stage)
	case r.Settled:
		end = "settled"
	}
	return fmt.Sprintf("%.3f s, %d minibatches, %d samples, %s", r.Seconds, r.RootCompletions, r.Samples, end)
}

// runArbitrate admits the named canonical scenarios as tenants of one
// global budget and prints the arbitrated shares next to the static
// even-split baseline; with -run it also executes the tenants concurrently
// on a shared worker pool and prints the measured shares.
func runArbitrate(args []string) error {
	fs := flag.NewFlagSet("arbitrate", flag.ExitOnError)
	tenantsFlag := fs.String("tenants", "vision,tiny-files", "comma-separated scenario names to admit as tenants")
	weightsFlag := fs.String("weights", "", "comma-separated tenant weights (default: all 1)")
	quick := fs.Bool("quick", false, "use the reduced scenario catalogs")
	run := fs.Bool("run", false, "execute the tenants concurrently on one shared worker pool and measure each share under contention")
	minibatches := fs.Int64("minibatches", 0, "with -run: bound each tenant's concurrent drain to N minibatches (0 = one full pass)")
	out := fs.String("out", "arbiter.json", "output path for the arbitration decision JSON")
	budgetFlag := budgetFlags(fs)
	fs.Parse(args)

	names := strings.Split(*tenantsFlag, ",")
	var weights []float64
	if *weightsFlag != "" {
		for _, w := range strings.Split(*weightsFlag, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(w), 64)
			if err != nil {
				return fmt.Errorf("-weights: %w", err)
			}
			weights = append(weights, v)
		}
		if len(weights) != len(names) {
			return fmt.Errorf("-weights lists %d values for %d tenants", len(weights), len(names))
		}
	}

	specs := map[string]scenario.Spec{}
	for _, s := range scenario.Suite(*quick) {
		specs[s.Name] = s
	}
	var tenants []plumber.Tenant
	for i, raw := range names {
		name := strings.TrimSpace(raw)
		spec, ok := specs[name]
		if !ok {
			known := make([]string, 0, len(specs))
			for n := range specs {
				known = append(known, n)
			}
			sort.Strings(known)
			return fmt.Errorf("unknown scenario %q (have: %s)", name, strings.Join(known, ", "))
		}
		w, err := scenario.Build(spec)
		if err != nil {
			return err
		}
		weight := 1.0
		if weights != nil {
			weight = weights[i]
		}
		tenants = append(tenants, plumber.Tenant{
			Name:          name,
			Weight:        weight,
			Graph:         w.Graph,
			Source:        w.Source,
			UDFs:          w.Registry,
			Seed:          w.Spec.Seed,
			WorkScale:     1,
			DiskBandwidth: w.DiskBandwidth,
		})
	}

	budget := budgetFlag()
	arb, dec, err := plumber.ArbitrateAll(tenants, budget)
	if err != nil {
		return err
	}

	fmt.Printf("arbitrated %d tenants under %d cores, %d MiB (%d planning traces):\n",
		len(dec.Shares), budget.Cores, budget.MemoryBytes>>20, dec.TracesUsed)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "tenant\tweight\tcores\tmemory MiB\tobserved mb/s\tpredicted mb/s\trewrites\tits trace")
	for _, s := range dec.Shares {
		fmt.Fprintf(tw, "%s\t%.1f\t%d\t%d\t%.1f\t%.1f\t%d\t%s\n",
			s.Tenant, s.Weight, s.Budget.Cores, s.Budget.MemoryBytes>>20,
			s.ObservedMinibatchesPerSec, s.PredictedMinibatchesPerSec, len(s.Trail), traceCost(s.Run))
	}
	tw.Flush()
	if dec.EvenSplitPredictedAggregate > 0 {
		fmt.Printf("predicted aggregate: %.1f minibatches/s (even split: %.1f, %+.1f%%)\n",
			dec.PredictedAggregateMinibatchesPerSec, dec.EvenSplitPredictedAggregate,
			100*(dec.PredictedAggregateMinibatchesPerSec/dec.EvenSplitPredictedAggregate-1))
	} else {
		fmt.Printf("predicted aggregate: %.1f minibatches/s (even-split baseline not pipeline-bound)\n",
			dec.PredictedAggregateMinibatchesPerSec)
	}

	var doc any = dec
	if *run {
		rep, err := arb.RunConcurrent(dec, plumber.RunOptions{
			Spin:           true,
			MaxMinibatches: *minibatches,
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nconcurrent run (%.1fs wall): measured aggregate %.1f minibatches/s vs predicted %.1f\n",
			rep.WallSeconds, rep.MeasuredAggregateMinibatchesPerSec, rep.PredictedAggregateMinibatchesPerSec)
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "tenant\tstatus\tcores\tpredicted mb/s\tmeasured mb/s\theld share\tpeak workers\tretries")
		for _, ms := range rep.Tenants {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.1f\t%.2f\t%d\t%d\n",
				ms.Tenant, ms.Status, ms.ShareCores, ms.PredictedMinibatchesPerSec,
				ms.MeasuredMinibatchesPerSec, ms.HeldShareFraction, ms.PeakWorkers, ms.Retries)
		}
		tw.Flush()
		for _, ms := range rep.Tenants {
			if ms.Failure != "" {
				fmt.Printf("  %s: %s\n", ms.Tenant, ms.Failure)
			}
		}
		for _, ev := range rep.Reclaims {
			fmt.Printf("  reclaim: %s (%s) at %.2fs freed %d cores, regranted %v\n",
				ev.Tenant, ev.Reason, ev.AtSeconds, ev.FreedCores, ev.Regrants)
		}
		doc = map[string]any{"decision": dec, "concurrent_run": rep}
	}

	j, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFile(*out, j); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fmtRate(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.1f", v)
}

func fmtBytes(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.0f", v)
}
