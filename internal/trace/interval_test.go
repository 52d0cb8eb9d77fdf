package trace

import (
	"sync"
	"testing"
	"time"

	"plumber/internal/pipeline"
)

// counterFields extracts the monotonic counters of a NodeStats in a fixed
// order, so monotonicity and delta-sum checks can range over them uniformly.
func counterFields(ns *NodeStats) []int64 {
	return []int64{
		ns.ElementsProduced, ns.ElementsConsumed, ns.BytesProduced,
		ns.BytesRead, ns.CPUNanos, ns.WallNanos,
		ns.Retries, ns.Errors, ns.GaveUp,
		ns.HandoffParks, ns.HandoffSteals,
	}
}

var counterNames = []string{
	"elements_produced", "elements_consumed", "bytes_produced",
	"bytes_read", "cpu_nanos", "wall_nanos",
	"retries", "errors", "gave_up",
	"handoff_parks", "handoff_steals",
}

// TestSnapshotIntervalMonotonic hammers a collector's counters from worker
// goroutines (through the same LocalStats flush path the engine uses) while
// the main goroutine takes interval snapshots mid-run. Every counter in
// every successive snapshot must be >= its predecessor (no regression from
// torn or double-counted flushes), every interval delta must be
// non-negative, and the deltas must sum exactly to the final snapshot.
func TestSnapshotIntervalMonotonic(t *testing.T) {
	g, err := pipeline.NewBuilder().
		Interleave("cat", 2).
		Map("decode", 4).
		Batch(8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(g, Machine{Name: "test", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"interleave_1", "map_1", "batch_1"}
	const (
		workersPerNode = 3
		iters          = 2000
		flushEvery     = 16
	)
	var wg sync.WaitGroup
	for _, name := range names {
		ns, err := col.Node(name)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workersPerNode; w++ {
			wg.Add(1)
			go func(ns *NodeStats) {
				defer wg.Done()
				var ls LocalStats
				for i := 0; i < iters; i++ {
					ls.AddProduced(64)
					ls.AddConsumed(1)
					ls.AddCPU(3 * time.Microsecond)
					ls.AddWall(5 * time.Microsecond)
					if i%97 == 0 {
						ls.AddRetry()
					}
					if i%997 == 0 {
						ls.AddError(i%1994 == 0)
					}
					if i%flushEvery == 0 {
						ls.Flush(ns)
					}
				}
				ls.Flush(ns)
				AddHandoff(ns, 2)
			}(ns)
		}
	}
	// Sample concurrently with the workers: each snapshot is a consistent
	// read of monotonic counters, so no counter may move backwards between
	// consecutive snapshots even while flushes land mid-sample.
	var snaps []*Snapshot
	for i := 0; i < 50; i++ {
		snaps = append(snaps, col.Snapshot(0, 8))
		time.Sleep(200 * time.Microsecond)
	}
	wg.Wait()
	snaps = append(snaps, col.Snapshot(0, 8))
	final := snaps[len(snaps)-1]

	// Monotonicity across the sampled sequence.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Duration < snaps[i-1].Duration {
			t.Fatalf("snapshot %d: duration regressed %v -> %v", i, snaps[i-1].Duration, snaps[i].Duration)
		}
		for _, name := range names {
			prev, cur := counterFields(snaps[i-1].Nodes[name]), counterFields(snaps[i].Nodes[name])
			for f := range cur {
				if cur[f] < prev[f] {
					t.Fatalf("snapshot %d node %s: %s regressed %d -> %d",
						i, name, counterNames[f], prev[f], cur[f])
				}
			}
		}
	}

	// Interval deltas are non-negative and sum to the final snapshot.
	sums := make(map[string][]int64, len(names))
	for _, name := range names {
		sums[name] = counterFields(snaps[0].Nodes[name])
	}
	var durSum = snaps[0].Duration
	for i := 1; i < len(snaps); i++ {
		d := snaps[i].Delta(snaps[i-1])
		durSum += d.Duration
		for _, name := range names {
			df := counterFields(d.Nodes[name])
			for f := range df {
				if df[f] < 0 {
					t.Fatalf("delta %d node %s: %s negative (%d)", i, name, counterNames[f], df[f])
				}
				sums[name][f] += df[f]
			}
		}
	}
	if durSum != final.Duration {
		t.Fatalf("delta durations sum to %v, want %v", durSum, final.Duration)
	}
	for _, name := range names {
		ff := counterFields(final.Nodes[name])
		for f := range ff {
			if sums[name][f] != ff[f] {
				t.Fatalf("node %s: deltas sum to %d for %s, final snapshot has %d",
					name, sums[name][f], counterNames[f], ff[f])
			}
		}
	}

	// The run's totals must also be exact: every worker contribution landed
	// exactly once despite the concurrent sampling.
	wantProduced := int64(workersPerNode * iters)
	for _, name := range names {
		if got := final.Nodes[name].ElementsProduced; got != wantProduced {
			t.Fatalf("node %s: final produced %d, want %d", name, got, wantProduced)
		}
		if got := final.Nodes[name].HandoffParks; got != int64(workersPerNode*2) {
			t.Fatalf("node %s: final parks %d, want %d", name, got, workersPerNode*2)
		}
	}
}

// TestSnapshotDeltaAcrossSetGraph checks interval deltas across a live
// graph patch: surviving nodes keep accumulating (delta picks up exactly
// the post-patch activity), an inserted node contributes its full counters
// to the first delta that includes it, and a removed node's history stays
// in the snapshot map without going negative.
func TestSnapshotDeltaAcrossSetGraph(t *testing.T) {
	g := pipeline.NewBuilder().
		Interleave("cat", 2).
		Map("decode", 2).
		MustBuild()
	col, err := NewCollector(g, Machine{Name: "test", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	mapStats, err := col.Node("map_1")
	if err != nil {
		t.Fatal(err)
	}
	var ls LocalStats // a worker's shard, flushed as the engine does
	ls.AddProduced(100)
	ls.AddProduced(100)
	ls.Flush(mapStats)
	before := col.Snapshot(time.Second, 8)

	ng, err := g.InsertAbove("map_1", pipeline.Node{Name: "hotcache", Kind: pipeline.KindCache})
	if err != nil {
		t.Fatal(err)
	}
	ng, err = ng.WithParallelism("map_1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.SetGraph(ng); err != nil {
		t.Fatal(err)
	}
	cacheStats, err := col.Node("hotcache")
	if err != nil {
		t.Fatalf("inserted node has no counters: %v", err)
	}
	ls.AddProduced(50)
	ls.Flush(cacheStats)
	ls.AddProduced(100)
	ls.Flush(mapStats)
	after := col.Snapshot(2*time.Second, 8)

	d := after.Delta(before)
	if got := d.Nodes["map_1"].ElementsProduced; got != 1 {
		t.Fatalf("surviving node delta produced = %d, want 1 (counters must accumulate, not reset)", got)
	}
	if got := d.Nodes["map_1"].Parallelism; got != 4 {
		t.Fatalf("surviving node delta parallelism gauge = %d, want patched value 4", got)
	}
	if got := d.Nodes["hotcache"].ElementsProduced; got != 1 {
		t.Fatalf("inserted node delta produced = %d, want its full count 1", got)
	}
	if d.Graph.NodeIndex("hotcache") < 0 {
		t.Fatal("delta graph missing inserted node")
	}
	if d.Duration != time.Second {
		t.Fatalf("delta duration = %v, want 1s", d.Duration)
	}
}
