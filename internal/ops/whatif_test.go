package ops

import (
	"math"
	"testing"

	"plumber/internal/pipeline"
	"plumber/internal/trace"
)

// whatifAnalysis builds a hand-made three-node analysis: a cheap source, a
// costly parallelizable map (rate 100 minibatches/s/core), and a free
// batch. ObservedRate is set to half the modeled bound so the calibration
// factor is exactly 0.5.
func whatifAnalysis() *Analysis {
	g := pipeline.NewBuilder().
		Interleave("cat", 1).
		Map("decode", 1).
		Batch(4).
		MustBuild()
	return &Analysis{
		Snapshot:     &trace.Snapshot{Graph: g, Machine: trace.Machine{Cores: 4}},
		ObservedRate: 50,
		Nodes: []NodeAnalysis{
			{Name: "interleave_1", Kind: pipeline.KindInterleave, Parallelism: 1, Parallelizable: true,
				Rate: 1000, ScaledCapacity: 1000, IOBytesPerMinibatch: 1 << 20,
				Cacheable: true, MaterializedBytes: 4 << 20},
			{Name: "map_1", Kind: pipeline.KindMap, Parallelism: 1, Parallelizable: true,
				Rate: 100, ScaledCapacity: 100,
				Cacheable: true, MaterializedBytes: 8 << 20},
			{Name: "batch_1", Kind: pipeline.KindBatch, Parallelism: 1,
				Rate: math.Inf(1), ScaledCapacity: math.Inf(1),
				Cacheable: true, MaterializedBytes: 8 << 20},
		},
	}
}

func TestPredictRateNodeBound(t *testing.T) {
	a := whatifAnalysis()
	// As traced: the 100/s map binds.
	if got := a.PredictRate(Hypothetical{}); got != 100 {
		t.Fatalf("as-traced bound = %v, want 100", got)
	}
	// Raising the map to 3 cores lifts its capacity to 300; nothing else
	// binds below the interleave's 1000.
	got := a.PredictRate(Hypothetical{Parallelism: map[string]int{"map_1": 3}})
	if got != 300 {
		t.Fatalf("map@3 bound = %v, want 300", got)
	}
	// Overrides on unknown or sequential nodes are ignored.
	got = a.PredictRate(Hypothetical{Parallelism: map[string]int{"batch_1": 8, "nope": 4}})
	if got != 100 {
		t.Fatalf("ignored overrides: bound = %v, want 100", got)
	}
}

func TestPredictRateAggregateCPUBound(t *testing.T) {
	a := whatifAnalysis()
	// Per-minibatch CPU cost: 1/1000 + 1/100 = 0.011 core-seconds. With one
	// core the work-conservation ceiling (~90.9) binds below the map@2
	// node capacity (200).
	got := a.PredictRate(Hypothetical{Parallelism: map[string]int{"map_1": 2}, Cores: 1})
	want := 1 / (1.0/1000 + 1.0/100)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("1-core bound = %v, want %v", got, want)
	}
}

func TestPredictRateDiskBound(t *testing.T) {
	a := whatifAnalysis()
	// 10 MB/s over 1 MiB/minibatch ≈ 9.54 minibatches/s binds everything.
	got := a.PredictRate(Hypothetical{Parallelism: map[string]int{"map_1": 4}, DiskBandwidth: 10e6})
	want := 10e6 / float64(1<<20)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("disk bound = %v, want %v", got, want)
	}
}

func TestPredictRateWarmCacheDropsCoveredNodes(t *testing.T) {
	a := whatifAnalysis()
	// A warm cache above the map removes both source and map from the
	// model; only the free batch remains -> unbounded.
	got := a.PredictRate(Hypothetical{CacheAbove: "map_1", WarmCache: true})
	if !math.IsInf(got, 1) {
		t.Fatalf("warm-cache bound = %v, want +Inf (nothing measurable remains)", got)
	}
	// Cold (fill epoch): the whole chain still runs.
	got = a.PredictRate(Hypothetical{CacheAbove: "map_1", WarmCache: false})
	if got != 100 {
		t.Fatalf("fill-epoch bound = %v, want 100", got)
	}
}

func TestPredictRateOuterParallelism(t *testing.T) {
	a := whatifAnalysis()
	// Two replicas double every node capacity but not the aggregate CPU
	// bound (total work per minibatch is unchanged).
	if got := a.PredictRate(Hypothetical{OuterParallelism: 2}); got != 200 {
		t.Fatalf("outer=2 bound = %v, want 200", got)
	}
	got := a.PredictRate(Hypothetical{OuterParallelism: 2, Cores: 1})
	want := 1 / (1.0/1000 + 1.0/100)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("outer=2, 1 core = %v, want CPU bound %v", got, want)
	}
}

func TestEfficiencyCalibratesPredictions(t *testing.T) {
	a := whatifAnalysis()
	// ObservedRate 50 against the as-traced bound 100 -> efficiency 0.5.
	if got := a.Efficiency(0, 0, nil); got != 0.5 {
		t.Fatalf("efficiency = %v, want 0.5", got)
	}
	// The calibrated what-if prediction scales the raw bound by it.
	got := a.PredictObservedRate(Hypothetical{Parallelism: map[string]int{"map_1": 3}})
	if got != 150 {
		t.Fatalf("calibrated map@3 prediction = %v, want 150", got)
	}
	// An unbounded model passes through unscaled.
	got = a.PredictObservedRate(Hypothetical{CacheAbove: "map_1", WarmCache: true})
	if !math.IsInf(got, 1) {
		t.Fatalf("unbounded prediction = %v, want +Inf", got)
	}
}

// TestPredictObservedRateHeldToStorageBound: calibration discounts a storage
// bound and never lifts it. A trace served from a throttled device's burst
// allowance observes several times what the declared bandwidth is worth;
// that factor over a disk-bound shape is a rate the device cannot sustain.
func TestPredictObservedRateHeldToStorageBound(t *testing.T) {
	a := whatifAnalysis()
	disk := 10e6 / float64(1<<20) // 10 MB/s over 1 MiB a minibatch
	planned := Hypothetical{Parallelism: map[string]int{"map_1": 4}, DiskBandwidth: 10e6}

	// Read inside the burst: 40 minibatches/s observed of a device good for
	// 9.5, an efficiency of 4.2.
	a.ObservedRate = 40
	if got := a.PredictObservedRate(planned); math.Abs(got-disk) > 1e-9 {
		t.Fatalf("burst-calibrated prediction = %v, want the disk bound %v", got, disk)
	}
	// The same hint on one source alone holds it the same way.
	perSource := Hypothetical{Parallelism: planned.Parallelism, SourceBandwidth: map[string]float64{"interleave_1": 10e6}}
	if got := a.PredictObservedRate(perSource); math.Abs(got-disk) > 1e-9 {
		t.Fatalf("burst-calibrated per-source prediction = %v, want %v", got, disk)
	}
	// A device that delivered less than declared is still discounted.
	a.ObservedRate = disk / 2
	if got := a.PredictObservedRate(planned); math.Abs(got-disk/2) > 1e-9 {
		t.Fatalf("discounted prediction = %v, want %v", got, disk/2)
	}
	// A warm cache takes the source out of the model, and its bound with it.
	a.ObservedRate = 40
	warm := Hypothetical{CacheAbove: "interleave_1", WarmCache: true, Parallelism: planned.Parallelism, DiskBandwidth: 10e6}
	if got, eff := a.PredictObservedRate(warm), a.Efficiency(0, 10e6, nil); math.Abs(got-400*eff) > 1e-6 {
		t.Fatalf("warm prediction = %v, want map@4 x efficiency = %v", got, 400*eff)
	}
}
