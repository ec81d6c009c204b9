// Package fit implements the life-data analysis used to produce the
// paper's Figs. 1-2: Weibull probability plotting with median ranks
// (Benard's approximation, Johnson rank adjustment for suspensions),
// median-rank regression, censored maximum-likelihood estimation, and
// changepoint detection. These are the tools that turn field
// returns (times to failure plus survivors) into the (β, η) parameters the
// simulator consumes.
package fit

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Observation is one unit's time on test: a failure at Time or a suspension
// (still-running unit, right-censored) at Time.
type Observation struct {
	Time     float64
	Censored bool // true = suspension (unit survived past Time)
}

// ErrInsufficientFailures is returned when a dataset has fewer than two
// failures, which is the minimum for any two-parameter fit.
var ErrInsufficientFailures = errors.New("fit: need at least 2 failures")

func validate(obs []Observation) (failures int, err error) {
	for i, o := range obs {
		if !(o.Time > 0) || math.IsInf(o.Time, 0) {
			return 0, fmt.Errorf("fit: observation %d has invalid time %v", i, o.Time)
		}
		if !o.Censored {
			failures++
		}
	}
	if failures < 2 {
		return failures, ErrInsufficientFailures
	}
	return failures, nil
}

// PlotPoint is one point of a Weibull probability plot: in the transformed
// coordinates (X = ln t, Y = ln(-ln(1-F))) a two-parameter Weibull sample
// falls on a straight line with slope β.
type PlotPoint struct {
	Time       float64 // failure time
	MedianRank float64 // Benard median rank estimate of F(Time)
	X, Y       float64 // transformed plotting coordinates
}

// ProbabilityPlot computes Weibull plot points from a (possibly censored)
// dataset using Johnson's adjusted ranks and Benard's approximation,
// exactly the construction behind the paper's Figs. 1 and 2.
func ProbabilityPlot(obs []Observation) ([]PlotPoint, error) {
	if _, err := validate(obs); err != nil {
		return nil, err
	}
	sorted := make([]Observation, len(obs))
	copy(sorted, obs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })

	n := float64(len(sorted))
	points := make([]PlotPoint, 0, len(sorted))
	prevRank := 0.0
	for i, o := range sorted {
		if o.Censored {
			continue
		}
		// Johnson rank increment: suspensions before this failure inflate
		// the spacing of subsequent ranks.
		increment := (n + 1 - prevRank) / (n + 1 - float64(i))
		rank := prevRank + increment
		prevRank = rank
		// Benard's approximation to the median rank.
		f := (rank - 0.3) / (n + 0.4)
		points = append(points, PlotPoint{
			Time:       o.Time,
			MedianRank: f,
			X:          math.Log(o.Time),
			Y:          math.Log(-math.Log(1 - f)),
		})
	}
	return points, nil
}

// Params is a fitted two-parameter Weibull with a goodness-of-fit measure.
type Params struct {
	Shape float64 // β
	Scale float64 // η
	R2    float64 // coefficient of determination of the probability plot fit
}

// MedianRankRegression fits (β, η) by least squares on the probability-plot
// coordinates, regressing X on Y (the Weibull-analysis convention, which
// weights scatter in time rather than in rank).
func MedianRankRegression(obs []Observation) (Params, error) {
	points, err := ProbabilityPlot(obs)
	if err != nil {
		return Params{}, err
	}
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i] = p.X
		ys[i] = p.Y
	}
	// Regress X on Y: X = a + b Y, then β = 1/b, ln η = a.
	fitLine, err := LinearFit(ys, xs)
	if err != nil {
		return Params{}, fmt.Errorf("fit: regression: %w", err)
	}
	if fitLine.Slope <= 0 {
		return Params{}, fmt.Errorf("fit: non-positive plot slope %v (data not Weibull-orderable)", fitLine.Slope)
	}
	return Params{
		Shape: 1 / fitLine.Slope,
		Scale: math.Exp(fitLine.Intercept),
		R2:    fitLine.R2,
	}, nil
}

// MLE fits (β, η) by maximum likelihood with right-censoring. The profile
// likelihood in β is solved by bisection of its score function; η follows
// in closed form. MLE is the preferred estimator for heavily censored
// vintage data (Fig. 2's populations are >95% suspensions).
func MLE(obs []Observation) (Params, error) {
	r, err := validate(obs)
	if err != nil {
		return Params{}, err
	}
	// Work with times scaled by the maximum so t^β never overflows; the
	// estimator is scale-equivariant, so η is rescaled afterwards.
	var tmax float64
	for _, o := range obs {
		if o.Time > tmax {
			tmax = o.Time
		}
	}
	scaled := make([]Observation, len(obs))
	for i, o := range obs {
		scaled[i] = Observation{Time: o.Time / tmax, Censored: o.Censored}
	}
	// Score function g(β): sum over failures of ln t / r + 1/β −
	// Σ_all t^β ln t / Σ_all t^β. Decreasing in β.
	var sumLogFail float64
	for _, o := range scaled {
		if !o.Censored {
			sumLogFail += math.Log(o.Time)
		}
	}
	meanLogFail := sumLogFail / float64(r)
	score := func(beta float64) float64 {
		var num, den float64
		for _, o := range scaled {
			tb := math.Pow(o.Time, beta)
			num += tb * math.Log(o.Time)
			den += tb
		}
		return meanLogFail + 1/beta - num/den
	}
	lo, hi := 1e-3, 1.0
	for score(hi) > 0 {
		lo = hi
		hi *= 2
		if hi > 1e3 {
			return Params{}, fmt.Errorf("fit: MLE shape search diverged (all failures nearly equal?)")
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if score(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	beta := (lo + hi) / 2
	var den float64
	for _, o := range scaled {
		den += math.Pow(o.Time, beta)
	}
	eta := tmax * math.Pow(den/float64(r), 1/beta)
	p := Params{Shape: beta, Scale: eta}
	// Report the probability-plot R² for comparability with MRR.
	if mrr, err := MedianRankRegression(obs); err == nil {
		p.R2 = mrr.R2
	}
	return p, nil
}

// Line is a least-squares straight-line fit y = Intercept + Slope x.
type Line struct {
	Slope, Intercept float64
	R2               float64
}

// LinearFit computes the ordinary least squares line through (x, y).
func LinearFit(x, y []float64) (Line, error) {
	if len(x) != len(y) {
		return Line{}, fmt.Errorf("fit: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return Line{}, fmt.Errorf("fit: need >= 2 points, got %d", len(x))
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Line{}, fmt.Errorf("fit: degenerate x (zero variance)")
	}
	slope := sxy / sxx
	line := Line{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		line.R2 = sxy * sxy / (sxx * syy)
	} else {
		line.R2 = 1
	}
	return line, nil
}
