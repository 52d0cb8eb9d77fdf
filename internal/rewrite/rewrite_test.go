package rewrite

import (
	"math"
	"testing"

	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
	"plumber/internal/trace"
)

// testAnalysis hand-builds an operational analysis over the canonical
// interleave -> map -> batch chain with the given per-node capacities, so
// the ceiling is exercised deterministically without tracing a run.
func testAnalysis(t *testing.T, interleaveCap, mapCap, batchCap float64) *ops.Analysis {
	t.Helper()
	g, err := pipeline.NewBuilder().
		Interleave("cat", 1).
		Map("decode", 1).
		Batch(8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, kind pipeline.Kind, capacity float64, parallelizable bool) ops.NodeAnalysis {
		return ops.NodeAnalysis{
			Name:           name,
			Kind:           kind,
			Parallelism:    1,
			Parallelizable: parallelizable,
			Rate:           capacity,
			ScaledCapacity: capacity,
		}
	}
	a := &ops.Analysis{
		Snapshot: &trace.Snapshot{Graph: g},
		Nodes: []ops.NodeAnalysis{
			mk("interleave_1", pipeline.KindInterleave, interleaveCap, true),
			mk("map_1", pipeline.KindMap, mapCap, true),
			mk("batch_1", pipeline.KindBatch, batchCap, false),
		},
	}
	return a
}

func TestTrailHas(t *testing.T) {
	tr := Trail{{Rewrite: NameRaiseParallelism}, {Rewrite: NameInsertPrefetch}}
	if !tr.Has(NameRaiseParallelism) || !tr.Has(NameInsertPrefetch) {
		t.Fatal("Trail.Has misses applied rewrites")
	}
	if tr.Has(NameInsertCache) {
		t.Fatal("Trail.Has reports an unapplied rewrite")
	}
}

func TestCapacityCeiling(t *testing.T) {
	a := testAnalysis(t, 400, 200, 30)
	// Sequential batch capacity (30) is below the CPU bound.
	if c := CapacityCeiling(a, plan.Budget{Cores: 64}); c != 30 {
		t.Fatalf("ceiling = %v, want the sequential cap 30", c)
	}
	// Unbudgeted: only the sequential cap binds.
	if c := CapacityCeiling(a, plan.Budget{}); c != 30 {
		t.Fatalf("unbudgeted ceiling = %v, want 30", c)
	}
	inf := math.Inf(1)
	a2 := testAnalysis(t, 400, 200, inf)
	if c := CapacityCeiling(a2, plan.Budget{}); !math.IsInf(c, 1) {
		t.Fatalf("ceiling with no binding constraint = %v, want +Inf", c)
	}
}
