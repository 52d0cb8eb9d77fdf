package ops

import (
	"math"
	"testing"
)

// TestPredictRatePerSourceBandwidth checks the per-source hint semantics:
// a hint on an IO node bounds that node at min(global, hint), hints on
// non-IO or unknown nodes are ignored, and a nil map reproduces the single
// global scalar bit-for-bit.
func TestPredictRatePerSourceBandwidth(t *testing.T) {
	a := whatifAnalysis()
	full := Hypothetical{Parallelism: map[string]int{"map_1": 4}}

	// Baseline: the global scalar alone (10 MB/s over 1 MiB/minibatch).
	globalOnly := a.PredictRate(Hypothetical{Parallelism: full.Parallelism, DiskBandwidth: 10e6})

	// A nil SourceBandwidth map must not change anything.
	got := a.PredictRate(Hypothetical{Parallelism: full.Parallelism, DiskBandwidth: 10e6, SourceBandwidth: nil})
	if got != globalOnly {
		t.Fatalf("nil source map changed the prediction: %v vs %v", got, globalOnly)
	}

	// A tighter per-source hint binds below the global scalar.
	got = a.PredictRate(Hypothetical{
		Parallelism:     full.Parallelism,
		DiskBandwidth:   10e6,
		SourceBandwidth: map[string]float64{"interleave_1": 5e6},
	})
	want := 5e6 / float64(1<<20)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("tight hint: bound = %v, want %v", got, want)
	}

	// A looser hint defers to the global scalar (min wins).
	got = a.PredictRate(Hypothetical{
		Parallelism:     full.Parallelism,
		DiskBandwidth:   10e6,
		SourceBandwidth: map[string]float64{"interleave_1": 50e6},
	})
	if math.Abs(got-globalOnly) > 1e-9 {
		t.Fatalf("loose hint: bound = %v, want global %v", got, globalOnly)
	}

	// A hint with no global scalar bounds the IO node on its own.
	got = a.PredictRate(Hypothetical{
		Parallelism:     full.Parallelism,
		SourceBandwidth: map[string]float64{"interleave_1": 5e6},
	})
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("hint-only: bound = %v, want %v", got, want)
	}

	// Hints on non-IO or unknown nodes are ignored.
	got = a.PredictRate(Hypothetical{
		Parallelism:     full.Parallelism,
		SourceBandwidth: map[string]float64{"map_1": 1, "nope": 1},
	})
	unbounded := a.PredictRate(full)
	if got != unbounded {
		t.Fatalf("non-IO hints changed the prediction: %v vs %v", got, unbounded)
	}
}

// TestCeilingStorage checks the storage bound every consumer of the model
// reads: the global bandwidth bounds the I/O nodes' aggregate demand, a
// source hint bounds its own node, the tighter of the two wins, and a
// pipeline with no I/O — or no bandwidth declared anywhere — is unbounded.
func TestCeilingStorage(t *testing.T) {
	io := analysisFromCapacities([]float64{100, 50}, 1<<20)
	noIO := analysisFromCapacities([]float64{100, 50}, 0)
	src := io.Nodes[0].Name
	hinted := 10e6 / float64(1<<20)
	inf := math.Inf(1)
	for _, c := range []struct {
		name string
		a    *Analysis
		h    Hypothetical
		want float64
	}{
		{"global_only", io, Hypothetical{DiskBandwidth: 100 << 20}, 100},
		{"tight_hint", io, Hypothetical{DiskBandwidth: 100 << 20, SourceBandwidth: map[string]float64{src: 10e6}}, hinted},
		{"loose_hint", io, Hypothetical{DiskBandwidth: 5 << 20, SourceBandwidth: map[string]float64{src: 10e6}}, 5},
		{"hint_only", io, Hypothetical{SourceBandwidth: map[string]float64{src: 10e6}}, hinted},
		{"no_io", noIO, Hypothetical{DiskBandwidth: 10e6, SourceBandwidth: map[string]float64{src: 10e6}}, inf},
		{"zero_bandwidth", io, Hypothetical{}, inf},
		{"negative_bandwidth", io, Hypothetical{DiskBandwidth: -1e9, SourceBandwidth: map[string]float64{src: -1}}, inf},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := c.a.Ceiling(c.h).Storage; math.Abs(got-c.want) > 1e-9 && got != c.want {
				t.Fatalf("Storage = %v, want %v", got, c.want)
			}
		})
	}
}
