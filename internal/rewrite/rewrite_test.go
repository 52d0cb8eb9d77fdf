package rewrite

import (
	"encoding/json"
	"math"
	"testing"

	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
)

// testAnalysis hand-builds an operational analysis over the canonical
// interleave -> map -> batch chain with the given per-node capacities, so
// rewrite decisions are exercised deterministically without tracing a run.
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

func graphJSON(t *testing.T, g *pipeline.Graph) string {
	t.Helper()
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// applyChecked runs a rewrite and asserts the invariants every remedy must
// hold: the result passes Validate and the analyzed graph is untouched.
func applyChecked(t *testing.T, rw Rewrite, a *ops.Analysis, b Budget) (*pipeline.Graph, Step, bool) {
	t.Helper()
	before := graphJSON(t, a.Snapshot.Graph)
	g, step, applied, err := rw.Apply(a, b)
	if err != nil {
		t.Fatalf("%s: %v", rw.Name(), err)
	}
	if graphJSON(t, a.Snapshot.Graph) != before {
		t.Fatalf("%s mutated the analyzed graph", rw.Name())
	}
	if applied {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s produced an invalid graph: %v", rw.Name(), err)
		}
		if step.Rewrite != rw.Name() {
			t.Fatalf("%s audit step names %q", rw.Name(), step.Rewrite)
		}
		if step.Detail == "" {
			t.Fatalf("%s audit step has no detail", rw.Name())
		}
	}
	return g, step, applied
}

func TestRaiseParallelismStepsTheBottleneck(t *testing.T) {
	inf := math.Inf(1)
	a := testAnalysis(t, 400, 50, inf)
	g, step, applied := applyChecked(t, RaiseParallelism{}, a, Budget{Cores: 8})
	if !applied {
		t.Fatal("expected raise-parallelism to apply")
	}
	if step.Node != "map_1" {
		t.Fatalf("raised %q, want the modeled bottleneck map_1", step.Node)
	}
	n, _ := g.Node("map_1")
	if n.Parallelism != 2 {
		t.Fatalf("map parallelism = %d, want 2", n.Parallelism)
	}
}

func TestRaiseParallelismStopsWhenCoresBind(t *testing.T) {
	inf := math.Inf(1)
	a := testAnalysis(t, 400, 50, inf)
	// One core's work-conservation ceiling, 1/(1/400+1/50) = 44.4/s, is
	// below the map's single-worker capacity: nothing to raise.
	if _, _, applied := applyChecked(t, RaiseParallelism{}, a, Budget{Cores: 1}); applied {
		t.Fatal("raise-parallelism should not apply when the core budget binds")
	}
	// Two cores lift the ceiling to 88.9/s: the map claims 1.78 cores and
	// takes a second worker, although the two knobs then total 3.
	g, _, applied := applyChecked(t, RaiseParallelism{}, a, Budget{Cores: 2})
	if !applied {
		t.Fatal("raise-parallelism should size the map by its CPU claim, not by the knob count")
	}
	if n, _ := g.Node("map_1"); n.Parallelism != 2 {
		t.Fatalf("map parallelism = %d, want 2", n.Parallelism)
	}
}

func TestRaiseParallelismStopsAtCeiling(t *testing.T) {
	// The sequential batch caps the pipeline at 30; both parallelizable
	// nodes already exceed that, so raising them is pointless.
	a := testAnalysis(t, 400, 200, 30)
	if _, _, applied := applyChecked(t, RaiseParallelism{}, a, Budget{Cores: 16}); applied {
		t.Fatal("raise-parallelism should not apply past the sequential ceiling")
	}
}

func TestRaiseParallelismRespectsMaxPerNode(t *testing.T) {
	inf := math.Inf(1)
	a := testAnalysis(t, 400, 50, inf)
	if _, _, applied := applyChecked(t, RaiseParallelism{MaxPerNode: 1}, a, Budget{Cores: 8}); applied {
		t.Fatal("raise-parallelism should respect MaxPerNode")
	}
}

func TestInsertPrefetchAppliesOnce(t *testing.T) {
	inf := math.Inf(1)
	a := testAnalysis(t, 400, 50, inf)
	g, step, applied := applyChecked(t, InsertPrefetch{Buffer: 4}, a, Budget{})
	if !applied {
		t.Fatal("expected insert-prefetch to apply")
	}
	root, _ := g.Node(g.Output)
	if root.Kind != pipeline.KindPrefetch || root.BufferSize != 4 {
		t.Fatalf("root = %+v, want prefetch(4)", root)
	}
	if step.Node != root.Name {
		t.Fatalf("step anchors %q, want %q", step.Node, root.Name)
	}

	// Re-analyzing the rewritten graph: root already a prefetch, no-op.
	a2 := &ops.Analysis{Snapshot: &trace.Snapshot{Graph: g}, Nodes: a.Nodes}
	if _, _, applied := applyChecked(t, InsertPrefetch{}, a2, Budget{}); applied {
		t.Fatal("insert-prefetch should not stack prefetches at the root")
	}
}

func TestInsertCachePicksClosestToRootWithinBudget(t *testing.T) {
	inf := math.Inf(1)
	a := testAnalysis(t, 400, 50, inf)
	// Materialization costs grow toward the root; the batch output is legal
	// but too large for the budget, so the map output must be chosen.
	a.Nodes[0].Cacheable = true
	a.Nodes[0].MaterializedBytes = 1 << 20
	a.Nodes[1].Cacheable = true
	a.Nodes[1].MaterializedBytes = 4 << 20
	a.Nodes[2].Cacheable = true
	a.Nodes[2].MaterializedBytes = 64 << 20

	g, step, applied := applyChecked(t, InsertCacheAtBestNode{}, a, Budget{MemoryBytes: 8 << 20})
	if !applied {
		t.Fatal("expected insert-cache to apply")
	}
	cache, err := g.Node(step.Node)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Kind != pipeline.KindCache || cache.Input != "map_1" {
		t.Fatalf("cache = %+v, want a cache above map_1", cache)
	}
}

func TestInsertCacheRespectsLegalityAndBudget(t *testing.T) {
	inf := math.Inf(1)
	a := testAnalysis(t, 400, 50, inf)
	for i := range a.Nodes {
		a.Nodes[i].Cacheable = true
		a.Nodes[i].MaterializedBytes = 4 << 20
	}

	// No memory budget: never applicable.
	if _, _, applied := applyChecked(t, InsertCacheAtBestNode{}, a, Budget{}); applied {
		t.Fatal("insert-cache should not apply without a memory budget")
	}
	// Budget smaller than every materialization: not applicable.
	if _, _, applied := applyChecked(t, InsertCacheAtBestNode{}, a, Budget{MemoryBytes: 1 << 20}); applied {
		t.Fatal("insert-cache should not apply when nothing fits")
	}
	// Nothing legal: not applicable.
	for i := range a.Nodes {
		a.Nodes[i].Cacheable = false
		a.Nodes[i].CacheVeto = "test veto"
	}
	if _, _, applied := applyChecked(t, InsertCacheAtBestNode{}, a, Budget{MemoryBytes: 64 << 20}); applied {
		t.Fatal("insert-cache should respect cacheability vetoes")
	}

	// A chain that already contains a cache is left alone.
	for i := range a.Nodes {
		a.Nodes[i].Cacheable = true
	}
	g2, err := a.Snapshot.Graph.InsertAbove("map_1", pipeline.Node{Name: "c", Kind: pipeline.KindCache})
	if err != nil {
		t.Fatal(err)
	}
	a2 := &ops.Analysis{Snapshot: &trace.Snapshot{Graph: g2}, Nodes: a.Nodes}
	if _, _, applied := applyChecked(t, InsertCacheAtBestNode{}, a2, Budget{MemoryBytes: 64 << 20}); applied {
		t.Fatal("insert-cache should not stack caches")
	}
}

func TestOuterParallelismFiresOnSequentialBottleneck(t *testing.T) {
	a := testAnalysis(t, 400, 200, 30) // sequential batch is the bottleneck
	g, step, applied := applyChecked(t, OuterParallelism{}, a, Budget{Cores: 8})
	if !applied {
		t.Fatal("expected outer-parallelism to apply")
	}
	if g.OuterParallelism != 2 {
		t.Fatalf("outer parallelism = %d, want 2", g.OuterParallelism)
	}
	if step.Node != "batch_1" {
		t.Fatalf("step anchors %q, want batch_1", step.Node)
	}
}

func TestOuterParallelismSkipsParallelizableBottleneck(t *testing.T) {
	inf := math.Inf(1)
	a := testAnalysis(t, 400, 50, inf) // map (parallelizable) is the bottleneck
	if _, _, applied := applyChecked(t, OuterParallelism{}, a, Budget{Cores: 8}); applied {
		t.Fatal("outer-parallelism should defer to intra-operator raises")
	}
}

func TestOuterParallelismRespectsCoreBudget(t *testing.T) {
	a := testAnalysis(t, 400, 200, 30)
	// Each replica claims 2 parallel cores; a 3-core budget cannot fund a
	// second replica.
	if _, _, applied := applyChecked(t, OuterParallelism{}, a, Budget{Cores: 3}); applied {
		t.Fatal("outer-parallelism should not exceed the core budget")
	}
}

func TestOuterParallelismRespectsCacheMemory(t *testing.T) {
	mkAnalysis := func(materialized float64) *ops.Analysis {
		a := testAnalysis(t, 400, 200, 30)
		g, err := a.Snapshot.Graph.InsertAbove("batch_1", pipeline.Node{Name: "c", Kind: pipeline.KindCache})
		if err != nil {
			t.Fatal(err)
		}
		a.Snapshot.Graph = g
		a.Nodes[2].MaterializedBytes = materialized // batch_1, the cache's input
		return a
	}

	// Replicating doubles the cache: 4MiB x 2 fits a 16MiB budget...
	if _, _, applied := applyChecked(t, OuterParallelism{}, mkAnalysis(4<<20), Budget{Cores: 8, MemoryBytes: 16 << 20}); !applied {
		t.Fatal("outer-parallelism should apply when the doubled cache fits")
	}
	// ...but not a 6MiB budget.
	if _, _, applied := applyChecked(t, OuterParallelism{}, mkAnalysis(4<<20), Budget{Cores: 8, MemoryBytes: 6 << 20}); applied {
		t.Fatal("outer-parallelism should not double a cache past the memory budget")
	}
	// A warm-cache trace reports MaterializedBytes 0 (nothing read below
	// the cache): unmeasurable, so never replicate on its evidence.
	if _, _, applied := applyChecked(t, OuterParallelism{}, mkAnalysis(0), Budget{Cores: 8, MemoryBytes: 16 << 20}); applied {
		t.Fatal("outer-parallelism must not replicate a cache of unmeasured size")
	}
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
	if c := CapacityCeiling(a, Budget{Cores: 64}); c != 30 {
		t.Fatalf("ceiling = %v, want the sequential cap 30", c)
	}
	// Unbudgeted: only the sequential cap binds.
	if c := CapacityCeiling(a, Budget{}); c != 30 {
		t.Fatalf("unbudgeted ceiling = %v, want 30", c)
	}
	inf := math.Inf(1)
	a2 := testAnalysis(t, 400, 200, inf)
	if c := CapacityCeiling(a2, Budget{}); !math.IsInf(c, 1) {
		t.Fatalf("ceiling with no binding constraint = %v, want +Inf", c)
	}
}
