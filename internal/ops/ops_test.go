package ops

import (
	"math"
	"testing"

	"plumber/internal/pipeline"
)

func analysisFromCapacities(caps []float64, ioBytesPerMB float64) *Analysis {
	a := &Analysis{}
	for i, c := range caps {
		n := NodeAnalysis{
			Name:           nodeName(i),
			Kind:           pipeline.KindMap,
			ScaledCapacity: c,
		}
		if i == 0 {
			n.Kind = pipeline.KindInterleave
			n.IOBytesPerMinibatch = ioBytesPerMB
		}
		a.Nodes = append(a.Nodes, n)
	}
	return a
}

func nodeName(i int) string { return string(rune('a' + i)) }

func TestBottleneckSkipsInfiniteCapacity(t *testing.T) {
	inf := math.Inf(1)
	a := analysisFromCapacities([]float64{inf, 50, inf, 20, 30}, 0)
	if got := a.Bottleneck(); got.Name != nodeName(3) {
		t.Fatalf("bottleneck = %q (cap %v), want %q", got.Name, got.ScaledCapacity, nodeName(3))
	}
}

func TestBottleneckTieBreaksSourceToRoot(t *testing.T) {
	inf := math.Inf(1)
	a := analysisFromCapacities([]float64{inf, 20, 20, 20}, 0)
	// All finite candidates tie: the earliest (source->root) must win,
	// deterministically, on every call.
	for i := 0; i < 10; i++ {
		if got := a.Bottleneck(); got.Name != nodeName(1) {
			t.Fatalf("tie-break returned %q, want %q", got.Name, nodeName(1))
		}
	}
}

func TestBottleneckAllInfiniteFallsBackToSource(t *testing.T) {
	inf := math.Inf(1)
	a := analysisFromCapacities([]float64{inf, inf, inf}, 0)
	for i := 0; i < 10; i++ {
		if got := a.Bottleneck(); got.Name != nodeName(0) {
			t.Fatalf("all-Inf bottleneck returned %q, want the source %q", got.Name, nodeName(0))
		}
	}
}
