package fit

import (
	"fmt"
	"math"
)

// Changepoint locates the most likely single slope change in a probability
// plot by minimizing the total residual sum of squares of a two-segment
// fit. It returns the index (into points) where the second segment begins
// and the two fitted segments. The paper's HDD #2 (Fig. 1) shows exactly
// this signature: "two separate linear sections, denoting two distributions
// dominate at different points in time".
func Changepoint(points []PlotPoint) (split int, left, right Line, err error) {
	// Each segment must hold at least 10% of the points (and no fewer than
	// 3), so a handful of noisy extreme-tail order statistics cannot pass
	// for a regime of their own.
	minSeg := len(points) / 10
	if minSeg < 3 {
		minSeg = 3
	}
	if len(points) < 2*minSeg {
		return 0, Line{}, Line{}, fmt.Errorf("fit: need >= %d points for changepoint, got %d", 2*minSeg, len(points))
	}
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i] = p.X
		ys[i] = p.Y
	}
	best := math.Inf(1)
	for s := minSeg; s <= len(points)-minSeg; s++ {
		l, errL := LinearFit(xs[:s], ys[:s])
		r, errR := LinearFit(xs[s:], ys[s:])
		if errL != nil || errR != nil {
			continue
		}
		rss := segmentRSS(xs[:s], ys[:s], l) + segmentRSS(xs[s:], ys[s:], r)
		if rss < best {
			best, split, left, right = rss, s, l, r
		}
	}
	if math.IsInf(best, 1) {
		return 0, Line{}, Line{}, fmt.Errorf("fit: no valid changepoint split")
	}
	return split, left, right, nil
}

// ChangepointImprovement returns the fraction of the single-line residual
// sum of squares eliminated by the two-segment fit at the given split:
// 0 means no improvement, 1 means the segments fit perfectly. Values
// above ~0.5 indicate genuine multi-regime structure rather than noise.
func ChangepointImprovement(points []PlotPoint, split int, left, right Line) float64 {
	if split <= 0 || split >= len(points) {
		return 0
	}
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i] = p.X
		ys[i] = p.Y
	}
	single, err := LinearFit(xs, ys)
	if err != nil {
		return 0
	}
	baseRSS := segmentRSS(xs, ys, single)
	if baseRSS == 0 {
		return 0
	}
	segRSS := segmentRSS(xs[:split], ys[:split], left) + segmentRSS(xs[split:], ys[split:], right)
	return 1 - segRSS/baseRSS
}

func segmentRSS(x, y []float64, l Line) float64 {
	var rss float64
	for i := range x {
		d := y[i] - (l.Intercept + l.Slope*x[i])
		rss += d * d
	}
	return rss
}
