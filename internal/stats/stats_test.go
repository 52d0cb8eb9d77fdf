package stats

import (
	"math"
	"testing"
)

func TestSummaryQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
		{-10, 1}, {110, 5}, // clamped
		{62.5, 3.5}, // interpolated between ranks
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
	if got := Mean(xs); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := Stddev(xs); math.Abs(got-math.Sqrt(2.5)) > 1e-9 {
		t.Errorf("Stddev = %v, want sqrt(2.5)", got)
	}
	if got := Stddev([]float64{42}); got != 0 {
		t.Errorf("Stddev(1 sample) = %v, want 0", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(1234), NewRNG(1234)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same-seed streams diverge at draw %d: %d != %d", i, av, bv)
		}
	}
	// Different seeds give different streams.
	c := NewRNG(1235)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1234 vs 1235 collide on %d/100 draws", same)
	}
	// Split children are independent of the parent and of each other.
	p1, p2 := NewRNG(99), NewRNG(99)
	c1 := p1.Split()
	c2 := p2.Split()
	if c1.Uint64() != c2.Uint64() {
		t.Fatal("Split is not deterministic under equal parent state")
	}
	d1 := p1.Split()
	if d1.Uint64() == c1.Uint64() {
		t.Fatal("successive Splits yield identical children")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn(10) out of range: %d", n)
		}
	}
	// Perm is a permutation.
	p := r.Perm(32)
	seen := make([]bool, 32)
	for _, v := range p {
		if v < 0 || v >= 32 || seen[v] {
			t.Fatalf("Perm(32) is not a permutation: %v", p)
		}
		seen[v] = true
	}
}
