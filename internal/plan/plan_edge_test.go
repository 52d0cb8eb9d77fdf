package plan

import (
	"math"
	"testing"

	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
)

// TestSolveZeroCoreBudget: no budget cores and no traced machine cores falls
// back to the 64-core safety cap — the plan must still be finite and must
// not claim more than that cap.
func TestSolveZeroCoreBudget(t *testing.T) {
	a := testAnalysis(90)
	a.Snapshot.Machine.Cores = 0
	p, err := Solve(a, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if p.CoresPlanned > 64 {
		t.Fatalf("plan claims %d cores against the 64-core safety cap", p.CoresPlanned)
	}
	if p.CoresPlanned < 1 {
		t.Fatalf("plan claims %d cores, want >= 1", p.CoresPlanned)
	}
	if math.IsInf(p.PredictedMinibatchesPerSec, 0) || math.IsNaN(p.PredictedMinibatchesPerSec) {
		t.Fatalf("predicted rate %v not finite", p.PredictedMinibatchesPerSec)
	}
	for name, v := range p.Parallelism {
		if v < 1 {
			t.Fatalf("parallelism[%s] = %d, want >= 1", name, v)
		}
	}
}

// TestSolveMemoryOnlyBudget: cores come from the traced machine, memory from
// the budget; the planned cache must fit the budget at the planned replica
// count.
func TestSolveMemoryOnlyBudget(t *testing.T) {
	a := testAnalysis(90)
	p, err := Solve(a, Budget{MemoryBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheAbove == "" {
		t.Fatal("64MB budget fits every candidate; want a cache planned")
	}
	outer := p.OuterParallelism
	if outer < 1 {
		outer = 1
	}
	if p.CacheBytes*float64(outer) > float64(64<<20) {
		t.Fatalf("cache claims %.0f bytes x %d replicas over the %d budget",
			p.CacheBytes, outer, int64(64<<20))
	}
	if p.CoresPlanned > a.Snapshot.Machine.Cores {
		t.Fatalf("plan claims %d cores, machine has %d", p.CoresPlanned, a.Snapshot.Machine.Cores)
	}
}

// TestSolveSingleNodeGraph: a bare source is the whole pipeline; with no
// ceiling to stop at, water-filling hands it the full core budget.
func TestSolveSingleNodeGraph(t *testing.T) {
	g := pipeline.NewBuilder().Interleave("cat", 1).MustBuild()
	a := &ops.Analysis{
		Snapshot:     &trace.Snapshot{Graph: g, Machine: trace.Machine{Cores: 8}},
		ObservedRate: 90,
		Nodes: []ops.NodeAnalysis{
			{Name: "interleave_1", Kind: pipeline.KindInterleave, Parallelism: 1,
				Parallelizable: true, Rate: 100, ScaledCapacity: 100},
		},
	}
	p, err := Solve(a, Budget{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Parallelism["interleave_1"]; got != 4 {
		t.Fatalf("interleave cores = %d, want 4 (whole budget, no ceiling)", got)
	}
	if p.CoresPlanned != 4 {
		t.Fatalf("CoresPlanned = %d, want 4", p.CoresPlanned)
	}
	if p.PrefetchBuffer <= 0 {
		t.Fatal("no root prefetch planned for the single-node graph")
	}
}

// TestSolveAllSequentialGraph: when nothing is parallelizable, the only
// remedy is replication — the plan raises outer parallelism toward the CPU
// ceiling and sets no per-node knobs.
func TestSolveAllSequentialGraph(t *testing.T) {
	g := pipeline.NewBuilder().
		Interleave("cat", 1).
		Filter("parse").
		Batch(4).
		MustBuild()
	a := &ops.Analysis{
		Snapshot:     &trace.Snapshot{Graph: g, Machine: trace.Machine{Cores: 8}},
		ObservedRate: 45,
		Nodes: []ops.NodeAnalysis{
			{Name: "interleave_1", Kind: pipeline.KindInterleave, Parallelism: 1,
				Rate: 1000, ScaledCapacity: 1000},
			{Name: "filter_1", Kind: pipeline.KindFilter, Parallelism: 1,
				Rate: 50, ScaledCapacity: 50},
			{Name: "batch_1", Kind: pipeline.KindBatch, Parallelism: 1,
				Rate: math.Inf(1), ScaledCapacity: math.Inf(1)},
		},
	}
	p, err := Solve(a, Budget{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.OuterParallelism <= 1 {
		t.Fatalf("outer parallelism = %d, want > 1 (sequential filter binds)", p.OuterParallelism)
	}
	if len(p.Parallelism) != 0 {
		t.Fatalf("parallelism knobs %v set on an all-sequential graph", p.Parallelism)
	}
	if p.CoresPlanned > 8 {
		t.Fatalf("plan claims %d cores, budget 8", p.CoresPlanned)
	}
}

// TestSolveCacheExactlyAtMemoryCeiling: a materialization that equals the
// memory budget byte-for-byte still fits (<=, not <); one byte less and the
// candidate is infeasible.
func TestSolveCacheExactlyAtMemoryCeiling(t *testing.T) {
	a := testAnalysis(90)
	exact := int64(2 << 20) // == interleave_1's MaterializedBytes
	p, err := Solve(a, Budget{Cores: 4, MemoryBytes: exact})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheAbove != "interleave_1" {
		t.Fatalf("cache above %q, want interleave_1 at an exact-fit budget", p.CacheAbove)
	}
	if p.CacheBytes != float64(exact) {
		t.Fatalf("cache bytes %.0f, want %d (exact fit)", p.CacheBytes, exact)
	}
	p, err = Solve(a, Budget{Cores: 4, MemoryBytes: exact - 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheAbove != "" {
		t.Fatalf("cache above %q planned one byte under the smallest materialization", p.CacheAbove)
	}
}
