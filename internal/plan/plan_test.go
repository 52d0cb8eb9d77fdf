package plan

import (
	"math"
	"testing"

	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
)

// testAnalysis hand-builds the operational view of an interleave -> map ->
// batch chain: a cheap source (1000 minibatches/s/core), a costly map
// (100/s/core), and a free batch, with both source and batch output
// cacheable within a few MiB.
func testAnalysis(observed float64) *ops.Analysis {
	g := pipeline.NewBuilder().
		Interleave("cat", 1).
		Map("decode", 1).
		Batch(4).
		MustBuild()
	return &ops.Analysis{
		Snapshot:     &trace.Snapshot{Graph: g, Machine: trace.Machine{Cores: 8}},
		ObservedRate: observed,
		Nodes: []ops.NodeAnalysis{
			{Name: "interleave_1", Kind: pipeline.KindInterleave, Parallelism: 1, Parallelizable: true,
				Rate: 1000, ScaledCapacity: 1000, Cacheable: true, MaterializedBytes: 2 << 20},
			{Name: "map_1", Kind: pipeline.KindMap, Parallelism: 1, Parallelizable: true,
				Rate: 100, ScaledCapacity: 100, Cacheable: true, MaterializedBytes: 4 << 20},
			{Name: "batch_1", Kind: pipeline.KindBatch, Parallelism: 1,
				Rate: math.Inf(1), ScaledCapacity: math.Inf(1), Cacheable: true, MaterializedBytes: 4 << 20},
		},
	}
}

func TestSolveWaterFillsCoresTowardTheSlowNode(t *testing.T) {
	a := testAnalysis(90)
	p, err := Solve(a, Budget{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Cores are split by CPU demand: at the 4-core work-conservation
	// ceiling (4 / (1/1000 + 1/100) = 363.6/s) the map claims 3.64 cores
	// and rounds up to 4 workers, the interleave claims 0.36 and keeps 1.
	if got := p.Parallelism["map_1"]; got != 4 {
		t.Fatalf("map knob = %d, want 4 (ceil of a 3.64-core claim)", got)
	}
	if got := p.Parallelism["interleave_1"]; got != 1 {
		t.Fatalf("interleave knob = %d, want 1 (a 0.36-core claim)", got)
	}
	if p.CoresPlanned != 4 {
		t.Fatalf("plan claims %d cores, want the whole 4-core budget", p.CoresPlanned)
	}
	if p.PrefetchBuffer <= 0 {
		t.Fatal("no root prefetch planned")
	}
}

func TestSolveStopsAtTheResourceCeiling(t *testing.T) {
	a := testAnalysis(90)
	// 16 cores available, but the disk ceiling is ~everything above 250
	// minibatches/s is wasted: the map should stop near 250/100 -> 3, not
	// absorb all 15 spare cores.
	b := Budget{Cores: 16, DiskBandwidth: 250 << 20}
	a.Nodes[0].IOBytesPerMinibatch = 1 << 20
	p, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Parallelism["map_1"]; got != 3 {
		t.Fatalf("map cores = %d, want 3 (disk ceiling 250/s over rate 100/s/core)", got)
	}
}

func TestSolveCachePlacement(t *testing.T) {
	a := testAnalysis(90)
	p, err := Solve(a, Budget{Cores: 4, MemoryBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Everything fits; the downstream-most legal point (the batch output)
	// skips the most recomputation.
	if p.CacheAbove != "batch_1" {
		t.Fatalf("cache above %q, want batch_1", p.CacheAbove)
	}
	// A budget only the small source materialization fits: the two-phase
	// planner refused this cache (with the cores already fixed, the map
	// binds either way), but the joint solve re-concentrates the core the
	// warm cache frees — interleave's seed moves to the map, lifting the
	// prediction from 300 to 400 minibatches/s.
	p, err = Solve(a, Budget{Cores: 4, MemoryBytes: 3 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheAbove != "interleave_1" {
		t.Fatalf("cache above %q, want interleave_1 (joint solve re-concentrates the freed core)", p.CacheAbove)
	}
	if got := p.Parallelism["map_1"]; got != 4 {
		t.Fatalf("map cores = %d, want 4 (core freed by the warm source cache)", got)
	}
	// But when a disk bound binds below the map's capacity, the source
	// cache eliminates the I/O bound and becomes worth its bytes.
	a2 := testAnalysis(40)
	a2.Nodes[0].IOBytesPerMinibatch = 1 << 20
	p, err = Solve(a2, Budget{Cores: 4, MemoryBytes: 3 << 20, DiskBandwidth: 50 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheAbove != "interleave_1" {
		t.Fatalf("cache above %q, want interleave_1 to lift the 50/s disk bound", p.CacheAbove)
	}
	// No memory, no cache.
	p, err = Solve(a, Budget{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheAbove != "" {
		t.Fatalf("cache above %q planned despite a zero memory budget", p.CacheAbove)
	}
}

// TestSolveCacheLiftsCoreBoundCeiling pins the case that retired the old
// work-saved fallback heuristic: a downstream random augment bounds the
// ceiling at the current knobs, so the two-phase planner saw zero benefit
// in caching the decode — but the joint solve re-runs the water-filling on
// the post-cache curves, where the decode's freed cores quadruple the
// augment's capacity, and picks the cache on predicted rate alone.
func TestSolveCacheLiftsCoreBoundCeiling(t *testing.T) {
	g := pipeline.NewBuilder().
		Interleave("cat", 1).
		Map("decode", 1).
		Map("augment", 1).
		Batch(4).
		MustBuild()
	a := &ops.Analysis{
		Snapshot:     &trace.Snapshot{Graph: g, Machine: trace.Machine{Cores: 4}},
		ObservedRate: 90,
		Nodes: []ops.NodeAnalysis{
			{Name: "interleave_1", Kind: pipeline.KindInterleave, Parallelism: 1, Parallelizable: true,
				Rate: 1000, ScaledCapacity: 1000, Cacheable: true, MaterializedBytes: 2 << 20},
			// The decode is half the pipeline's CPU cost and cacheable...
			{Name: "map_1", Kind: pipeline.KindMap, Parallelism: 1, Parallelizable: true,
				Rate: 100, ScaledCapacity: 100, Cacheable: true, MaterializedBytes: 4 << 20},
			// ...but the randomized augment above it binds the ceiling
			// either way and vetoes every cache at or above itself.
			{Name: "map_2", Kind: pipeline.KindMap, Parallelism: 1, Parallelizable: true,
				Rate: 100, ScaledCapacity: 100, Cacheable: false, CacheVeto: "random"},
			{Name: "batch_1", Kind: pipeline.KindBatch, Parallelism: 1,
				Rate: math.Inf(1), ScaledCapacity: math.Inf(1), Cacheable: false, CacheVeto: "random"},
		},
	}
	p, err := Solve(a, Budget{Cores: 4, MemoryBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheAbove != "map_1" {
		t.Fatalf("cache above %q, want map_1 (frees decode cores for the augment)", p.CacheAbove)
	}
	if got := p.Parallelism["map_2"]; got != 4 {
		t.Fatalf("augment cores = %d, want 4 (water-filled on the post-cache curves)", got)
	}
}

func TestSolveOuterParallelismForSequentialBottleneck(t *testing.T) {
	a := testAnalysis(40)
	// Make the batch a measurable sequential bottleneck at 50/s, well below
	// the 8-core CPU ceiling; replication is the only remedy.
	a.Nodes[2].Rate = 50
	a.Nodes[2].ScaledCapacity = 50
	p, err := Solve(a, Budget{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.OuterParallelism < 2 {
		t.Fatalf("outer parallelism = %d, want >= 2 for the sequential 50/s batch", p.OuterParallelism)
	}
	if p.CoresPlanned > 8 {
		t.Fatalf("plan claims %d cores, budget 8", p.CoresPlanned)
	}
}

// TestSolveHonorsIndivisibleCoreBudgetUnderReplication pins the rounding
// bug where each water-fill grant costs one core per replica: with outer
// parallelism 2 and an odd core budget, the plan must not overshoot the
// envelope by the remainder.
func TestSolveHonorsIndivisibleCoreBudgetUnderReplication(t *testing.T) {
	a := testAnalysis(30)
	// Slow parallel map (20/s/core) under a sequential 60/s batch: the
	// 5-core budget forces 2 replicas and leaves no whole per-replica core
	// to grant.
	a.Nodes[1].Rate = 20
	a.Nodes[1].ScaledCapacity = 20
	a.Nodes[2].Rate = 60
	a.Nodes[2].ScaledCapacity = 60
	for _, cores := range []int{5, 7, 11} {
		p, err := Solve(a, Budget{Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		if p.CoresPlanned > cores {
			t.Fatalf("budget %d: plan claims %d cores (outer %d, knobs %v)",
				cores, p.CoresPlanned, p.OuterParallelism, p.Parallelism)
		}
	}
}

func TestSolvePredictionsAreCalibrated(t *testing.T) {
	// Observed 50 against the traced bound 100 -> efficiency 0.5; the fill
	// prediction for map@4 must be 0.5 * min(400, 4/0.011) = 181.8.
	a := testAnalysis(50)
	p, err := Solve(a, Budget{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Efficiency != 0.5 {
		t.Fatalf("efficiency = %v, want 0.5", p.Efficiency)
	}
	if want := 0.5 * 4 / 0.011; math.Abs(p.PredictedFillMinibatchesPerSec-want) > 1e-9 {
		t.Fatalf("fill prediction = %v, want %v", p.PredictedFillMinibatchesPerSec, want)
	}
}

// TestSolveNeverOvercommitsCores pins the accounting at the edges where
// whole-core counting used to overcommit or give up: more parallel stages
// than cores, a sequential bottleneck that wants replicas on an odd budget,
// and an unmeasured knob traced far above the budget. CoresPlanned is the
// ceiling of the planned CPU demand and never exceeds the budget; the knob
// total may, by the rounding only (stages - 1 per replica).
func TestSolveNeverOvercommitsCores(t *testing.T) {
	// Three measurable parallel stages against a 2-core budget: at the
	// 125/s ceiling they claim 0.125 + 1.25 + 0.625 = 2 cores, and only the
	// map's claim rounds above one worker.
	a := testAnalysis(90)
	a.Nodes[2].Parallelizable = true
	a.Nodes[2].Rate = 200
	a.Nodes[2].ScaledCapacity = 200
	p, err := Solve(a, Budget{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.CoresPlanned != 2 {
		t.Fatalf("plan claims %d cores, want 2 (knobs %v, outer %d)", p.CoresPlanned, p.Parallelism, p.OuterParallelism)
	}
	if got := p.Parallelism; got["interleave_1"] != 1 || got["map_1"] != 2 || got["batch_1"] != 1 {
		t.Fatalf("knobs %v, want interleave 1, map 2, batch 1", got)
	}

	// A sequential bottleneck that wants replicas: with 2 measurable stages
	// and a 3-core budget, two replicas fit — each runs its stages at half
	// the rate, so the claim is still the 3-core work-conservation bound.
	a = testAnalysis(40)
	a.Nodes[2].Rate = 50 // sequential batch at 50/s drives replication
	a.Nodes[2].ScaledCapacity = 50
	p, err = Solve(a, Budget{Cores: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.CoresPlanned > 3 {
		t.Fatalf("plan claims %d cores, budget 3 (outer %d)", p.CoresPlanned, p.OuterParallelism)
	}

	// An unmeasured knob kept at 8 must be degraded when, next to the
	// measured map's 4 workers, it breaks the budget + stages - 1 bound.
	a = testAnalysis(90)
	a.Snapshot.Graph.Nodes[0].Parallelism = 8
	a.Nodes[0].Parallelism = 8
	a.Nodes[0].Rate = math.Inf(1)
	a.Nodes[0].ScaledCapacity = math.Inf(1)
	p, err = Solve(a, Budget{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.CoresPlanned > 4 {
		t.Fatalf("plan claims %d cores, budget 4 (knobs %v)", p.CoresPlanned, p.Parallelism)
	}
	if got := p.Parallelism; got["interleave_1"] != 1 || got["map_1"] != 4 {
		t.Fatalf("knobs %v under a 4-core budget, want the measured map at 4 and the unmeasured interleave degraded to 1", got)
	}
}

// TestSolveCoresPlannedWithinBudgetSweep asserts the invariant the
// multi-tenant arbiter leans on: across budgets and shapes, Solve never
// emits CoresPlanned > Budget.Cores.
func TestSolveCoresPlannedWithinBudgetSweep(t *testing.T) {
	shapes := []func() *ops.Analysis{
		func() *ops.Analysis { return testAnalysis(90) },
		func() *ops.Analysis { // sequential bottleneck forcing replication
			a := testAnalysis(40)
			a.Nodes[2].Rate = 50
			a.Nodes[2].ScaledCapacity = 50
			return a
		},
		func() *ops.Analysis { // unmeasured knob kept high
			a := testAnalysis(90)
			a.Snapshot.Graph.Nodes[0].Parallelism = 6
			a.Nodes[0].Parallelism = 6
			a.Nodes[0].Rate = math.Inf(1)
			a.Nodes[0].ScaledCapacity = math.Inf(1)
			return a
		},
	}
	for si, mk := range shapes {
		for cores := 1; cores <= 12; cores++ {
			p, err := Solve(mk(), Budget{Cores: cores})
			if err != nil {
				t.Fatal(err)
			}
			if p.CoresPlanned > cores {
				t.Fatalf("shape %d budget %d: CoresPlanned %d exceeds budget (knobs %v, outer %d)",
					si, cores, p.CoresPlanned, p.Parallelism, p.OuterParallelism)
			}
			knobs := 0
			for _, v := range p.Parallelism {
				knobs += v
			}
			outer := p.OuterParallelism
			if limit := (cores+outer-1)/outer + len(p.Parallelism) - 1; knobs > limit {
				t.Fatalf("shape %d budget %d: %d knobs per replica exceed budget + stages - 1 = %d (knobs %v, outer %d)",
					si, cores, knobs, limit, p.Parallelism, outer)
			}
		}
	}
}

func TestSolveKeepsUnmeasuredKnobs(t *testing.T) {
	// A parallelizable node with no measurable rate keeps its current knob
	// instead of being churned to 1 — here the disk ceiling stops the map at
	// 2 workers, so 2 + 2 knobs fit the 4-core budget's bound of 5.
	a := testAnalysis(90)
	a.Snapshot.Graph.Nodes[0].Parallelism = 2
	a.Nodes[0].Parallelism = 2
	a.Nodes[0].Rate = math.Inf(1)
	a.Nodes[0].ScaledCapacity = math.Inf(1)
	a.Nodes[0].IOBytesPerMinibatch = 1 << 20
	p, err := Solve(a, Budget{Cores: 4, DiskBandwidth: 200 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Parallelism; got["interleave_1"] != 2 || got["map_1"] != 2 {
		t.Fatalf("knobs %v, want the unmeasured interleave kept at 2 beside the map at 2", got)
	}
}

// TestSolveSizesKnobsByCPUDemand is the paper's headline shape under the
// benchmark's budget: a source that costs microseconds and a 16 ms/minibatch
// decode. Whole-core counting charged the source one of the two cores and
// left the decode at 1; by demand the source claims 0.004 of a core and the
// decode both — with the decode running in steady state, and with a cache
// above it, where it runs only while the cache fills.
func TestSolveSizesKnobsByCPUDemand(t *testing.T) {
	mk := func() *ops.Analysis {
		a := testAnalysis(61)
		a.Nodes[0].Rate, a.Nodes[0].ScaledCapacity = 30000, 30000
		a.Nodes[1].Rate, a.Nodes[1].ScaledCapacity = 62.5, 62.5
		a.Nodes[2].Rate, a.Nodes[2].ScaledCapacity = 50000, 50000 // sequential batch
		return a
	}
	for _, mem := range []int64{0, 64 << 20} {
		p, err := Solve(mk(), Budget{Cores: 2, MemoryBytes: mem})
		if err != nil {
			t.Fatal(err)
		}
		if (p.CacheAbove != "") != (mem > 0) {
			t.Fatalf("memory %d: cache above %q", mem, p.CacheAbove)
		}
		if got := p.Parallelism; got["map_1"] != 2 || got["interleave_1"] != 1 {
			t.Fatalf("memory %d: knobs %v, want decode 2 and source 1", mem, got)
		}
		if p.CoresPlanned != 2 {
			t.Fatalf("memory %d: plan claims %d cores, want 2", mem, p.CoresPlanned)
		}
		// The fill prediction is the 2-core ceiling, calibrated by the
		// planning trace (61 observed against the decode's 62.5).
		want := 61 / 62.5 * 2 / (1/30000.0 + 1/62.5 + 1/50000.0)
		if got := p.PredictedFillMinibatchesPerSec; math.Abs(got-want) > 1e-6 {
			t.Fatalf("memory %d: fill prediction %v, want %v", mem, got, want)
		}
		// One core: every claim is below one, every knob stays 1.
		p, err = Solve(mk(), Budget{Cores: 1, MemoryBytes: mem})
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range p.Parallelism {
			if v != 1 {
				t.Fatalf("memory %d: knob %q = %d under a 1-core budget, want 1", mem, name, v)
			}
		}
		if p.CoresPlanned != 1 {
			t.Fatalf("memory %d: 1-core plan claims %d cores", mem, p.CoresPlanned)
		}
	}
}
