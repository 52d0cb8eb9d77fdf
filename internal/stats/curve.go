package stats

import (
	"fmt"
	"sort"
)

// PiecewiseLinear is a monotone piecewise-linear curve y = f(x), defined by
// sorted knot points. Plumber fits one of these to the measured
// read-parallelism-versus-bandwidth curve of a data source (§4.3 "Disk") and
// injects it into the optimizer.
type PiecewiseLinear struct {
	xs []float64
	ys []float64
}

// FitPiecewise builds a curve from sample points. Points are sorted by x and
// deduplicated (last y wins for duplicate x). At least one point is required.
func FitPiecewise(points map[float64]float64) (*PiecewiseLinear, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("stats: FitPiecewise requires at least one point")
	}
	xs := make([]float64, 0, len(points))
	for x := range points {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = points[x]
	}
	return &PiecewiseLinear{xs: xs, ys: ys}, nil
}

// At evaluates the curve at x, clamping outside the knot range.
func (p *PiecewiseLinear) At(x float64) float64 {
	n := len(p.xs)
	if x <= p.xs[0] {
		return p.ys[0]
	}
	if x >= p.xs[n-1] {
		return p.ys[n-1]
	}
	i := sort.SearchFloat64s(p.xs, x)
	// p.xs[i-1] < x <= p.xs[i]
	x0, x1 := p.xs[i-1], p.xs[i]
	y0, y1 := p.ys[i-1], p.ys[i]
	frac := (x - x0) / (x1 - x0)
	return y0 + frac*(y1-y0)
}

// Max returns the maximum knot value and the smallest x achieving a value
// within tol (relative) of that maximum. Plumber uses this to find the
// minimal read parallelism that saturates a device.
func (p *PiecewiseLinear) Max(tol float64) (x, y float64) {
	best := p.ys[0]
	for _, v := range p.ys {
		if v > best {
			best = v
		}
	}
	for i, v := range p.ys {
		if v >= best*(1-tol) {
			return p.xs[i], best
		}
	}
	return p.xs[len(p.xs)-1], best
}
