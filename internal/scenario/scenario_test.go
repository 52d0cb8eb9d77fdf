package scenario_test

import (
	"math"
	"testing"

	"plumber"
	"plumber/internal/ops"
	"plumber/internal/scenario"
)

// TestSuiteTracesToEOF traces every canonical scenario to EOF and checks
// the scenario-defining property each one exists to exercise.
func TestSuiteTracesToEOF(t *testing.T) {
	for _, spec := range scenario.Suite(testing.Short()) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			w, err := scenario.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := plumber.Trace(w.Graph, plumber.Options{
				Source: w.Source, UDFs: w.Registry, Seed: w.Spec.Seed, WorkScale: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			root, err := snap.RootStats()
			if err != nil {
				t.Fatal(err)
			}
			wantBatches := w.Catalog.TotalExamples() / int64(w.Spec.BatchSize)
			if root.ElementsProduced < wantBatches {
				t.Fatalf("drained %d minibatches, want >= %d (full pass)", root.ElementsProduced, wantBatches)
			}
			an, err := plumber.Analyze(snap, w.Registry)
			if err != nil {
				t.Fatal(err)
			}

			switch spec.Name {
			case "nlp":
				parse, err := an.Node("filter_1")
				if err != nil {
					t.Fatal(err)
				}
				if !parse.Parallelizable {
					t.Fatal("nlp parse Filter must be parallelizable, like a Map")
				}
				if math.IsInf(parse.ScaledCapacity, 1) {
					t.Fatal("nlp parse stage accumulated no measurable cost")
				}
			case "random-augment":
				// The randomized augment and everything downstream must be
				// uncacheable; the nodes below it stay cacheable.
				sawAugment := false
				for _, n := range an.Nodes {
					if n.Name == "map_2" {
						sawAugment = true
					}
					if sawAugment && n.Cacheable {
						t.Fatalf("node %q cacheable at/above the randomized augment", n.Name)
					}
				}
				if !sawAugment {
					t.Fatal("augment map not found in the analysis")
				}
				if src := an.Nodes[0]; !src.Cacheable {
					t.Fatalf("source below the augment vetoed: %s", src.CacheVeto)
				}
			case "cold-storage":
				if w.DiskBandwidth <= 0 {
					t.Fatal("cold-storage scenario carries no disk-bandwidth hint")
				}
				c := an.Ceiling(ops.Hypothetical{DiskBandwidth: w.DiskBandwidth})
				if disk, cpu := c.Storage, 8/c.CPUPerMinibatch; disk >= cpu {
					t.Fatalf("disk bound %.1f not below CPU bound %.1f; scenario is not disk-bound", disk, cpu)
				}
			case "skewed":
				var min, max int64 = math.MaxInt64, 0
				for _, b := range snap.Files {
					if b < min {
						min = b
					}
					if b > max {
						max = b
					}
				}
				if max < 2*min {
					t.Fatalf("skewed file sizes span only [%d, %d]; want a heavy tail", min, max)
				}
			case "vision":
				dec, err := an.Node("map_1")
				if err != nil {
					t.Fatal(err)
				}
				if bn := an.Bottleneck(); bn.Name != dec.Name {
					t.Fatalf("vision bottleneck = %q, want the decode map", bn.Name)
				}
			case "tiny-files":
				if an.TotalFiles != w.Catalog.NumFiles {
					t.Fatalf("observed catalog of %d files, want %d", an.TotalFiles, w.Catalog.NumFiles)
				}
			}
		})
	}
}

// TestBuildIsDeterministic pins the reproducibility contract: the same
// (Spec, Seed) yields bit-identical shard specs.
func TestBuildIsDeterministic(t *testing.T) {
	spec := scenario.Suite(true)[0]
	a, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Catalog.GenerateFileSpecs(spec.Seed), b.Catalog.GenerateFileSpecs(spec.Seed)
	for i := range fa {
		if fa[i].TotalBytes != fb[i].TotalBytes {
			t.Fatalf("file %d: %d vs %d bytes across builds", i, fa[i].TotalBytes, fb[i].TotalBytes)
		}
	}
}
