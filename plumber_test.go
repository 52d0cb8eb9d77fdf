package plumber

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/engine"
	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/rewrite"
	"plumber/internal/scenario"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

var facadeCatalog = data.Catalog{
	Name:                  "facade-test",
	NumFiles:              4,
	RecordsPerFile:        64,
	MeanRecordBytes:       256,
	RecordBytesStddevFrac: 0.2,
	DecodeAmplification:   1,
}

func facadeSetup(t *testing.T) (Connector, *udf.Registry) {
	t.Helper()
	if err := data.RegisterCatalog(facadeCatalog); err != nil {
		t.Fatal(err)
	}
	fs := connector.NewMem("facade-mem")
	fs.AddCatalog(facadeCatalog, 11)
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{
		Name: "facade_decode",
		Cost: udf.Cost{CPUPerElement: 20e-6, SizeFactor: 1},
	}); err != nil {
		t.Fatal(err)
	}
	return fs, reg
}

func sequentialGraph(t *testing.T) *pipeline.Graph {
	t.Helper()
	g, err := pipeline.NewBuilder().
		Interleave(facadeCatalog.Name, 1).
		Map("facade_decode", 1).
		Batch(8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTraceAndAnalyze(t *testing.T) {
	fs, reg := facadeSetup(t)
	g := sequentialGraph(t)
	snap, err := Trace(g, Options{Source: fs, UDFs: reg, WorkScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if snap.TotalFiles != facadeCatalog.NumFiles {
		t.Fatalf("TotalFiles = %d, want %d", snap.TotalFiles, facadeCatalog.NumFiles)
	}
	if len(snap.Files) != facadeCatalog.NumFiles {
		t.Fatalf("observed %d files, want %d", len(snap.Files), facadeCatalog.NumFiles)
	}
	// Counts must be exact, not short by a tracker flush interval: Trace
	// closes the pipeline (flushing every counter shard) before snapshotting.
	total := int64(facadeCatalog.NumFiles * facadeCatalog.RecordsPerFile)
	for _, name := range []string{"interleave_1", "map_1"} {
		if got := snap.Nodes[name].ElementsProduced; got != total {
			t.Fatalf("%s produced %d, want exactly %d", name, got, total)
		}
	}
	if got := snap.Nodes["batch_1"].ElementsProduced; got != total/8 {
		t.Fatalf("batch_1 produced %d, want exactly %d", got, total/8)
	}
	an, err := Analyze(snap, reg)
	if err != nil {
		t.Fatal(err)
	}
	if an.ObservedRate <= 0 {
		t.Fatalf("observed rate = %v, want > 0", an.ObservedRate)
	}
	mp, err := an.Node("map_1")
	if err != nil {
		t.Fatal(err)
	}
	if mp.CPUSeconds <= 0 {
		t.Fatal("map accumulated no modeled CPU under WorkScale 1")
	}
	bn := an.Bottleneck()
	if bn.Name != "map_1" {
		t.Fatalf("bottleneck = %q, want the costly map_1", bn.Name)
	}
}

// TestTraceKeepsUntracedPace: a plan is calibrated on the rate its trace
// observes, so the trace must watch the pipeline, not slow it. On a chain
// with no modeled CPU — the engine's own per-element work is all there is —
// a whole-pass Trace must read at least 0.8 of the rate an untraced drain of
// the same graph reaches; timing every element (a sampling period of 1)
// reads about 0.6 of it. Other load only ever lowers a wall-clock rate, so
// each side is the best of up to five drains, stopping once they agree.
func TestTraceKeepsUntracedPace(t *testing.T) {
	cat := data.Catalog{Name: "trace-pace", NumFiles: 4, RecordsPerFile: 8192, MeanRecordBytes: 500,
		RecordBytesStddevFrac: 0.004, DecodeAmplification: 1}
	if err := data.RegisterCatalog(cat); err != nil {
		t.Fatal(err)
	}
	fs := connector.NewMem("trace-pace-mem")
	fs.AddCatalog(cat, 1)
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{Name: "pace_noop", Cost: udf.Cost{SizeFactor: 1}}); err != nil {
		t.Fatal(err)
	}
	g := pipeline.NewBuilder().Interleave(cat.Name, 1).Map("pace_noop", 1).Batch(64).MustBuild()
	opts := Options{Source: fs, UDFs: reg}
	var traced, untraced float64
	for attempt := 0; attempt < 5 && (attempt == 0 || traced < 0.8*untraced); attempt++ {
		snap, err := Trace(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		traced = math.Max(traced, float64(snap.Nodes[g.Output].ElementsProduced)/snap.Duration.Seconds())
		start := time.Now()
		p, err := engine.New(g, engine.Options{FS: opts.Source, UDFs: reg})
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := p.Drain(0)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		untraced = math.Max(untraced, float64(n)/time.Since(start).Seconds())
	}
	if traced < 0.8*untraced {
		t.Fatalf("a trace read %.0f minibatches/s of a pipeline that runs %.0f untraced (%.2f), want at least 0.8", traced, untraced, traced/untraced)
	}
}

// TestOptimizeClosesTheLoop pins the façade's one loop, trace -> analyze ->
// solve -> rewrite: one trace, one step report, an audited rewrite reaching
// the tuned shape, and the caller's graph untouched.
func TestOptimizeClosesTheLoop(t *testing.T) {
	fs, reg := facadeSetup(t)
	g := sequentialGraph(t)
	before, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}

	budget := Budget{Cores: 4, MemoryBytes: 64 << 20}
	res, err := Optimize(g, budget, Options{Source: fs, UDFs: reg, WorkScale: 1})
	if err != nil {
		t.Fatal(err)
	}

	after, _ := json.Marshal(g)
	if string(before) != string(after) {
		t.Fatal("Optimize mutated the caller's graph")
	}
	if res.TracesUsed != 1 || len(res.Steps) != 1 {
		t.Fatalf("%d traces over %d steps, want one of each", res.TracesUsed, len(res.Steps))
	}
	if res.Steps[0].ObservedMinibatchesPerSec <= 0 {
		t.Fatal("the trace observed no throughput")
	}
	if err := res.Final.Validate(); err != nil {
		t.Fatalf("final graph invalid: %v", err)
	}
	for _, name := range []string{rewrite.NameRaiseParallelism, rewrite.NameInsertPrefetch, rewrite.NameInsertCache} {
		if !res.Trail.Has(name) {
			t.Fatalf("audit trail missing %s", name)
		}
	}

	// The costly map must have been raised within the core budget.
	mp, err := res.Final.Node("map_1")
	if err != nil {
		t.Fatal(err)
	}
	if mp.Parallelism < 2 {
		t.Fatalf("map parallelism = %d, want raised above 1", mp.Parallelism)
	}
	// Knobs round fractional CPU claims up, so two parallel stages may
	// start one worker more than the budget has cores.
	if workers := rewrite.ParallelCoresInUse(res.Final); workers > budget.Cores+1 {
		t.Fatalf("final program starts %d workers, budget %d cores + 2 stages - 1", workers, budget.Cores)
	}
	root, err := res.Final.Node(res.Final.Output)
	if err != nil {
		t.Fatal(err)
	}
	if root.Kind != pipeline.KindPrefetch {
		t.Fatalf("final root is %s, want prefetch", root.Kind)
	}

	// The whole result must serialize (the CLI emits it as JSON).
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result not serializable: %v", err)
	}
}

// TestOptimizeUnboundedBudgetConverges pins the zero-budget path: with no
// core budget given, the tuner allocates against the machine.
func TestOptimizeUnboundedBudgetConverges(t *testing.T) {
	fs, reg := facadeSetup(t)
	res, err := Optimize(sequentialGraph(t), Budget{}, Options{Source: fs, UDFs: reg, WorkScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget.Cores <= 0 {
		t.Fatalf("reported budget cores = %d, want the machine default", res.Budget.Cores)
	}
	if res.Plan.CoresPlanned > res.Budget.Cores {
		t.Fatalf("plan claims %d cores of the machine's %d", res.Plan.CoresPlanned, res.Budget.Cores)
	}
}

// TestOptimizeRespectsZeroMemoryBudget pins the budget-binding path of the
// plan-first tuner: with no cache memory, it must not insert a cache.
func TestOptimizeRespectsZeroMemoryBudget(t *testing.T) {
	t.Run("plan-first", func(t *testing.T) {
		fs, reg := facadeSetup(t)
		res, err := Optimize(sequentialGraph(t), Budget{Cores: 2}, Options{Source: fs, UDFs: reg, WorkScale: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trail.Has(rewrite.NameInsertCache) {
			t.Fatal("cache inserted despite a zero memory budget")
		}
		for _, n := range res.Final.Nodes {
			if n.Kind == pipeline.KindCache {
				t.Fatal("final graph contains a cache despite a zero memory budget")
			}
		}
	})
}

// facadeSpin burns the façade fixture's modeled CPU, twenty times over:
// 400 µs a record, 100 ms a pass untuned. A prediction is a wall-clock rate
// on this host, and only burned CPU gives a trace a rate that means anything.
func facadeSpin(fs Connector, reg *udf.Registry) Options {
	return Options{Source: fs, UDFs: reg, WorkScale: 20, Spin: true}
}

// planHolds runs Optimize, live, and holds the plan to the corpus: the
// program it plans is the one a recorded settled trace of g plans, and
// that plan's prediction is within 25 % of the rate a recorded settled
// trace of the planned program reads — the miss that used to send
// plan-first into refinement. It returns the live result and the replayed
// one.
func planHolds(t *testing.T, name string, g *pipeline.Graph, budget Budget, opts Options) (live, replayed *Result) {
	t.Helper()
	live, err := Optimize(g, budget, opts)
	if err != nil {
		t.Fatal(err)
	}
	replayed = planOf(t, recorded(t, name+"-settled", g, opts, engine.Settled, nil), opts.UDFs, budget)
	if got, want := jsonOf(live.Final), jsonOf(replayed.Final); got != want {
		t.Fatalf("Optimize planned\n%s\nthe recorded trace planned\n%s", got, want)
	}
	if replayed.PredictedMinibatchesPerSec <= 0 {
		t.Fatal("plan-first published no prediction to hold a job against")
	}
	measured := tracedX0(recorded(t, name+"-planned-settled", replayed.Final, opts, engine.Settled, nil))
	if !within(measured, replayed.PredictedMinibatchesPerSec, 0.25) {
		t.Fatalf("predicted %.1f minibatches/s, a settled trace of the planned program reads %.1f", replayed.PredictedMinibatchesPerSec, measured)
	}
	return live, replayed
}

// TestOptimizePlanFirst pins the predictive path end to end: Optimize
// solves one joint allocation from a single trace, materializes it as one
// audited rewrite and stops there, and the rate it predicts is the rate the
// planned program then shows. The allocation is the tuned shape: decode
// raised to the budget's four cores, a cache (the dataset fits the memory
// budget) and a root prefetch.
func TestOptimizePlanFirst(t *testing.T) {
	fs, reg := facadeSetup(t)
	budget := Budget{Cores: 4, MemoryBytes: 64 << 20}
	res, _ := planHolds(t, "facade", sequentialGraph(t), budget, facadeSpin(fs, reg))
	if res.Plan == nil || res.TracesUsed != 1 || len(res.Steps) != 1 {
		t.Fatalf("plan-first used %d traces over %d steps (plan %v), want one of each", res.TracesUsed, len(res.Steps), res.Plan)
	}
	want := pipeline.NewBuilder().
		Interleave(facadeCatalog.Name, 1).
		Map("facade_decode", 4).
		Batch(8).
		Named("plumber_cache").Cache().
		Named("plumber_prefetch").Prefetch(8).MustBuild()
	if got := jsonOf(res.Final); got != jsonOf(want) {
		t.Fatalf("plan-first planned\n%s\nwant\n%s", got, jsonOf(want))
	}
	// Every knob change must be audited under the canonical rewrite names.
	for _, name := range []string{rewrite.NameRaiseParallelism, rewrite.NameInsertPrefetch, rewrite.NameInsertCache} {
		if !res.Trail.Has(name) {
			t.Fatalf("audit trail missing %s", name)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result not serializable: %v", err)
	}
}

// TestOptimizePlanFirstNoOpReportsVerification pins the empty-trail path:
// when the traced shape already is the plan, the planning trace is a run of
// the planned program, so the prediction must be the rate that trace
// observed — and a second trace of the same program must agree with it.
func TestOptimizePlanFirstNoOpReportsVerification(t *testing.T) {
	fs, reg := facadeSetup(t)
	budget := Budget{Cores: 4, MemoryBytes: 64 << 20}
	opts := facadeSpin(fs, reg)
	g := sequentialGraph(t)
	first := planOf(t, recorded(t, "facade-settled", g, opts, engine.Settled, nil), reg, budget)
	// Re-optimizing the tuned program has nothing left to apply.
	live, second := planHolds(t, "facade-planned", first.Final, budget, opts)
	if len(second.Trail) != 0 {
		t.Fatalf("the second plan still applied %d rewrites", len(second.Trail))
	}
	if live.TracesUsed != 1 {
		t.Fatalf("no-op plan took %d traces, want one", live.TracesUsed)
	}
	if observed := second.Steps[0].ObservedMinibatchesPerSec; !within(second.PredictedMinibatchesPerSec, observed, 1e-9) {
		t.Fatalf("no-op plan predicted %.3f minibatches/s for the program it had just traced at %.3f",
			second.PredictedMinibatchesPerSec, observed)
	}
}

// TestStepReportSurvivesDegenerateAnalysis pins the NaN hardening: a
// degenerate analysis (NaN observed rate and capacities) must still produce
// a JSON-marshalable report — encoding/json rejects NaN outright, and the
// CLI surfaces that as an opaque error.
func TestStepReportSurvivesDegenerateAnalysis(t *testing.T) {
	g := sequentialGraph(t)
	an := &ops.Analysis{
		Snapshot:     &trace.Snapshot{Graph: g, Machine: trace.Machine{Cores: 4}},
		ObservedRate: math.NaN(),
		Nodes: []ops.NodeAnalysis{
			{Name: "interleave_1", Kind: pipeline.KindInterleave, Parallelism: 1, Parallelizable: true,
				Rate: math.NaN(), ScaledCapacity: math.NaN()},
			{Name: "map_1", Kind: pipeline.KindMap, Parallelism: 1, Parallelizable: true,
				Rate: math.Inf(1), ScaledCapacity: math.Inf(1)},
		},
	}
	r := stepReport(an, Budget{Cores: 4})
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("degenerate step report not serializable: %v", err)
	}
	var back StepReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.ObservedMinibatchesPerSec != 0 || back.BottleneckCapacity != 0 || back.CapacityCeiling != 0 {
		t.Fatalf("degenerate rates not zeroed: %+v", back)
	}
}

// TestOptimizePlanFirstMatchesGreedyShape pins the knobs plan-first reaches
// on the synthetic catalog to the ones the sequential greedy tuner (a
// re-trace per remedy, since deleted) converged to: interleave 1, decode 4.
func TestOptimizePlanFirstMatchesGreedyShape(t *testing.T) {
	fs, reg := facadeSetup(t)
	budget := Budget{Cores: 4, MemoryBytes: 64 << 20}
	planned, err := Optimize(sequentialGraph(t), budget, Options{Source: fs, UDFs: reg, WorkScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"interleave_1": 1, "map_1": 4} {
		n, err := planned.Final.Node(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := n.EffectiveParallelism(); got != want {
			t.Errorf("%s parallelism %d, want %d", name, got, want)
		}
	}
}

// TestOptimizeAllFacade pins the multi-tenant façade wiring: two scenario
// workloads admitted by ArbitrateAll under one global budget come back with per-tenant
// shares, materialized programs, and an even-split baseline, all without
// the caller leaving package plumber.
func TestOptimizeAllFacade(t *testing.T) {
	var tenants []Tenant
	for _, name := range []string{"vision", "tiny-files"} {
		for _, s := range scenario.Suite(true) {
			if s.Name != name {
				continue
			}
			w, err := scenario.Build(s)
			if err != nil {
				t.Fatal(err)
			}
			tenants = append(tenants, Tenant{
				Name: name, Weight: 1, Graph: w.Graph, Source: w.Source, UDFs: w.Registry,
				Seed: s.Seed, WorkScale: 1,
			})
		}
	}
	_, dec, err := ArbitrateAll(tenants, Budget{Cores: 8, MemoryBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Shares) != 2 {
		t.Fatalf("%d shares, want 2", len(dec.Shares))
	}
	total := 0
	for _, s := range dec.Shares {
		total += s.Budget.Cores
		if err := s.Program.Validate(); err != nil {
			t.Fatalf("tenant %q program invalid: %v", s.Tenant, err)
		}
		if s.Plan.CoresPlanned > dec.Budget.Cores {
			t.Fatalf("tenant %q plan claims %d cores of the %d-core pool", s.Tenant, s.Plan.CoresPlanned, dec.Budget.Cores)
		}
	}
	if total > 8 {
		t.Fatalf("shares claim %d cores, budget 8", total)
	}
	if dec.PredictedAggregateMinibatchesPerSec < dec.EvenSplitPredictedAggregate {
		t.Fatalf("arbitrated aggregate %.1f below even split %.1f",
			dec.PredictedAggregateMinibatchesPerSec, dec.EvenSplitPredictedAggregate)
	}
	if _, _, err := ArbitrateAll(nil, Budget{Cores: 4}); err == nil {
		t.Fatal("ArbitrateAll accepted an empty tenant set")
	}
}
