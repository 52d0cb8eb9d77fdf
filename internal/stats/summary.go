package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs (n-1 denominator).
// It returns 0 for fewer than two samples.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// FiniteOrZero maps a non-finite value (±Inf or NaN) to 0, the repo-wide
// JSON encoding for "no finite model bound": encoding/json refuses to
// marshal non-finite floats, so every rate field that can carry an
// unbounded or undefined model value must pass through here before being
// serialized.
func FiniteOrZero(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}
