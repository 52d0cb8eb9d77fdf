package fuzz

import (
	"encoding/json"
	"testing"

	"plumber/internal/plan"
	"plumber/internal/scenario"
	"plumber/internal/stats"
)

// masterSeed is the logged root of every derived per-case seed; change it
// and the whole matrix changes reproducibly.
const masterSeed = 0x706c756d626572 // "plumber"

// TestFuzzPlannerInvariants drives the property harness over a seeded
// matrix of random workloads. Every failure prints the minimized spec as
// JSON so it can be replayed without the harness.
func TestFuzzPlannerInvariants(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 30
	}
	t.Logf("master seed %#x, %d workloads, epsilon %.2f", uint64(masterSeed), n, Epsilon)
	rng := stats.NewRNG(masterSeed)
	for i := 0; i < n; i++ {
		seed := rng.Uint64()
		c, err := Check(seed)
		if err != nil {
			t.Fatalf("case %d (seed %d): %v", i, seed, err)
		}
		if len(c.Violations) > 0 {
			t.Errorf("case %d: %s", i, Report(Minimize(c)))
		}
	}
}

// TestJointSolveCanonicalScenarios is the acceptance head-to-head: on
// every canonical scenario the joint solve's modeled rate must match or
// beat the retired cores-then-cache greedy baseline — the ordering the
// joint pass exists to dominate.
func TestJointSolveCanonicalScenarios(t *testing.T) {
	for _, spec := range scenario.Suite(true) {
		budget := plan.Budget{Cores: 4, MemoryBytes: 64 << 20, DiskBandwidth: spec.Device.TotalBandwidth}
		c, err := CheckSpec(spec, budget)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(c.Violations) > 0 {
			t.Errorf("%s: %v", spec.Name, c.Violations)
		}
		if r := c.Ratio(); r < 1 {
			t.Errorf("%s: joint solve %.1f below greedy %.1f (ratio %.3f)",
				spec.Name, c.PlannerRate, c.GreedyRate, r)
		}
	}
}

// TestCanonicalPlansNeverBelowWholeCoreCounting pins the change of core
// accounting from the other side: sizing knobs by CPU demand may only ever
// add workers to a stage. The floors are the workers per stage (knob x
// replicas) that the whole-core grant loop this planner replaced gave the
// canonical scenarios under 3, 4 and 9 cores, without a memory budget and
// with 64 MiB — its plans were the same on every run, accounted CPU being a
// function of the data. That loop could not give a Filter workers, so it
// replicated nlp's whole chain for its parse Filter: those replicas are the
// Filter's floor, and the stages beside it, which took them along, keep the
// one worker their knob had.
func TestCanonicalPlansNeverBelowWholeCoreCounting(t *testing.T) {
	type floor struct{ interleave, map1, map2, filter int }
	// Indexed [budget 3, 4, 9][no memory, 64 MiB].
	floors := map[string][3][2]floor{
		"vision":         {{{1, 2, 0, 0}, {1, 2, 0, 0}}, {{1, 3, 0, 0}, {1, 3, 0, 0}}, {{1, 8, 0, 0}, {1, 8, 0, 0}}},
		"nlp":            {{{1, 1, 0, 1}, {1, 1, 0, 1}}, {{1, 1, 0, 2}, {1, 1, 0, 1}}, {{1, 1, 0, 4}, {1, 1, 0, 1}}},
		"tiny-files":     {{{1, 2, 0, 0}, {1, 2, 0, 0}}, {{2, 2, 0, 0}, {2, 2, 0, 0}}, {{4, 5, 0, 0}, {4, 5, 0, 0}}},
		"skewed":         {{{1, 2, 0, 0}, {1, 2, 0, 0}}, {{1, 3, 0, 0}, {1, 3, 0, 0}}, {{1, 8, 0, 0}, {1, 8, 0, 0}}},
		"random-augment": {{{1, 1, 1, 0}, {1, 1, 3, 0}}, {{1, 2, 1, 0}, {1, 1, 4, 0}}, {{1, 4, 4, 0}, {1, 1, 9, 0}}},
		"cold-storage":   {{{1, 1, 0, 0}, {1, 1, 0, 0}}, {{1, 1, 0, 0}, {1, 1, 0, 0}}, {{1, 1, 0, 0}, {1, 1, 0, 0}}},
	}
	for _, spec := range scenario.Suite(true) {
		want, ok := floors[spec.Name]
		if !ok {
			t.Fatalf("no floor recorded for canonical scenario %q", spec.Name)
		}
		for bi, cores := range []int{3, 4, 9} {
			for mi, mem := range []int64{0, 64 << 20} {
				c, err := CheckSpec(spec, plan.Budget{Cores: cores, MemoryBytes: mem, DiskBandwidth: spec.Device.TotalBandwidth})
				if err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
				if len(c.Violations) > 0 {
					t.Errorf("%s cores=%d mem=%d: %v", spec.Name, cores, mem, c.Violations)
				}
				f := want[bi][mi]
				for name, floor := range map[string]int{"interleave_1": f.interleave, "map_1": f.map1, "map_2": f.map2, "filter_1": f.filter} {
					if got := c.Parallelism[name] * c.OuterReplicas; got < floor {
						t.Errorf("%s cores=%d mem=%d: %s runs %d workers (knobs %v x %d replicas), whole-core counting planned %d",
							spec.Name, cores, mem, name, got, c.Parallelism, c.OuterReplicas, floor)
					}
				}
			}
		}
	}
}

// FuzzSolve is the native fuzz target over the same generator: any uint64
// is a valid workload, so the mutator explores the whole spec space.
// Run with: go test -fuzz=FuzzSolve -fuzztime=20s ./internal/fuzz
func FuzzSolve(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 0xdeadbeef, 0x706c756d626572} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		c, err := Check(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(c.Violations) > 0 {
			t.Errorf("%s", Report(Minimize(c)))
		}
	})
}

// FuzzSpecRoundTrip checks that every generated spec survives a JSON
// round trip with its identity intact: the re-read spec must normalize to
// the same shape and register the same catalog name, or a recorded spec (a
// minimized counterexample included) would rebuild a different workload
// than it measured.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 0xdeadbeef, 0x706c756d626572} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		s, _ := Gen(seed)
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		var got scenario.Spec
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		if got != s {
			t.Fatalf("seed %d: round trip changed the spec:\n  in  %+v\n  out %+v", seed, s, got)
		}
		if got.CatalogName() != s.CatalogName() {
			t.Fatalf("seed %d: round trip changed the catalog name %q -> %q",
				seed, s.CatalogName(), got.CatalogName())
		}
	})
}
