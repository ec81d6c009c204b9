// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) from the raidrel model. Each function returns structured
// data; cmd/experiments renders it and bench_test.go at the module root
// wraps each one in a benchmark.
package experiments

import (
	"fmt"

	"raidrel/internal/analytic"
	"raidrel/internal/core"
	"raidrel/internal/stats"
)

// Options control the Monte Carlo scale of every experiment.
type Options struct {
	// Iterations is the number of simulated RAID groups per configuration
	// (the paper uses 1,000-10,000).
	Iterations int
	// Seed makes every experiment reproducible.
	Seed uint64
	// CurvePoints is the grid resolution of cumulative curves.
	CurvePoints int
	// BiasOp, when not 0 or 1, enables failure-biased importance sampling
	// at that operational-hazard scale factor: every configuration is
	// simulated under the tilted measure and all curves and totals are
	// likelihood-ratio weighted, resolving rare-event cells with far fewer
	// iterations.
	BiasOp float64
}

// Default returns paper-scale options: 10,000 groups per configuration.
func Default() Options {
	return Options{Iterations: 10000, Seed: 20070625, CurvePoints: 21}
}

// Reduced returns cheap options for tests and benchmarks.
func Reduced() Options {
	return Options{Iterations: 500, Seed: 20070625, CurvePoints: 11}
}

func (o Options) validate() error {
	if o.Iterations < 1 {
		return fmt.Errorf("experiments: iterations must be >= 1, got %d", o.Iterations)
	}
	if o.CurvePoints < 2 {
		return fmt.Errorf("experiments: curve needs >= 2 points, got %d", o.CurvePoints)
	}
	return nil
}

// run simulates p at the options' scale: o.Iterations groups from
// o.Seed, failure-biased at o.BiasOp unless p is a fleet (the fleet
// engine is unbiased only). Every exhibit runs its models through here.
func (o Options) run(p core.Params) (*core.Result, error) {
	if p.Fleet == nil {
		p.Bias.Op = o.BiasOp
	}
	m, err := core.New(p)
	if err != nil {
		return nil, err
	}
	return m.Run(o.Iterations, o.Seed)
}

// Series is one labelled curve: DDFs per 1,000 RAID groups versus hours.
type Series struct {
	Name   string
	Times  []float64
	Values []float64
}

// Final returns the last value of the series.
func (s Series) Final() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// runSeries simulates params and samples its cumulative DDF curve.
func runSeries(name string, p core.Params, opt Options) (Series, *core.Result, error) {
	res, err := opt.run(p)
	if err != nil {
		return Series{}, nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	times, values := res.Curve(opt.CurvePoints)
	return Series{Name: name, Times: times, Values: values}, res, nil
}

// mttdlSeries is the straight "rate × time" line of equation 3 on the same
// grid, using the raw MTBF/MTTR the paper feeds equation 1.
func mttdlSeries(p core.Params, opt Options) (Series, error) {
	in := analytic.MTTDLInput{
		N:    p.GroupSize - 1,
		MTBF: p.TTOp.Scale,
		MTTR: p.TTR.Scale,
	}
	times := make([]float64, opt.CurvePoints)
	values := make([]float64, opt.CurvePoints)
	for i := range times {
		times[i] = p.MissionHours * float64(i) / float64(opt.CurvePoints-1)
		v, err := analytic.ExpectedDDFs(in, times[i], 1000)
		if err != nil {
			return Series{}, err
		}
		values[i] = v
	}
	return Series{Name: "MTTDL", Times: times, Values: values}, nil
}

// Figure6 reproduces Fig. 6: the model against the MTTDL line with no
// latent defects, in the four rate-assumption variants — c-c (constant
// failure and restoration rates), f(t)-c, c-r(t), and f(t)-r(t).
func Figure6(opt Options) ([]Series, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	base := core.BaseCase().WithoutLatentDefects()
	variants := []struct {
		name    string
		expOp   bool
		expRest bool
	}{
		{"c-c", true, true},
		{"f(t)-c", false, true},
		{"c-r(t)", true, false},
		{"f(t)-r(t)", false, false},
	}
	out := make([]Series, 0, len(variants)+1)
	line, err := mttdlSeries(base, opt)
	if err != nil {
		return nil, err
	}
	out = append(out, line)
	for _, v := range variants {
		p := base
		p.ExponentialOp = v.expOp
		p.ExponentialRestore = v.expRest
		s, _, err := runSeries(v.name, p, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure7 reproduces Fig. 7: the base case with latent defects, with a
// 168-hour scrub versus no scrubbing.
func Figure7(opt Options) ([]Series, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	var out []Series
	for _, cfg := range []struct {
		name  string
		hours float64
	}{
		{"no scrub", 0},
		{"168 h scrub", 168},
	} {
		s, _, err := runSeries(cfg.name, core.BaseCase().WithScrubPeriod(cfg.hours), opt)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ROCOFSeries is a labelled set of fixed-window DDF counts (Fig. 8),
// together with the Crow-AMSAA power-law fit that quantifies the trend:
// growth exponent β > 1 (and a significantly positive z) is the paper's
// "increasing ROCOF" claim in parametric form.
type ROCOFSeries struct {
	Name       string
	Points     []stats.ROCOFPoint
	Increasing bool
	PowerLaw   stats.PowerLawFit
	GrowthZ    float64
}

// Figure8 reproduces Fig. 8: the rate of occurrence of failures for the
// Fig. 7 cases, computed over fixed windows. The paper's point is that the
// ROCOF rises over the mission — the opposite of the HPP assumption.
func Figure8(opt Options) ([]ROCOFSeries, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	window := core.BaseMissionHours / 10.0
	var out []ROCOFSeries
	for _, cfg := range []struct {
		name  string
		hours float64
	}{
		{"no scrub", 0},
		{"168 h scrub", 168},
	} {
		res, err := opt.run(core.BaseCase().WithScrubPeriod(cfg.hours))
		if err != nil {
			return nil, err
		}
		points, err := res.ROCOF(window)
		if err != nil {
			return nil, err
		}
		series := ROCOFSeries{
			Name:       cfg.name,
			Points:     points,
			Increasing: stats.IsIncreasingTrend(points),
		}
		if fit, err := stats.FitPowerLawTimes(res.Raw.Times(), res.Groups, core.BaseMissionHours); err == nil {
			series.PowerLaw = fit
			series.GrowthZ = stats.GrowthTestZ(fit)
		}
		out = append(out, series)
	}
	return out, nil
}

// Figure9 reproduces Fig. 9: scrub-duration sweep (336/168/48/12 hours).
func Figure9(opt Options) ([]Series, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	var out []Series
	for _, hours := range []float64{336, 168, 48, 12} {
		s, _, err := runSeries(fmt.Sprintf("%.0f h scrub", hours),
			core.BaseCase().WithScrubPeriod(hours), opt)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure10 reproduces Fig. 10: the TTOp shape-parameter sweep at fixed
// characteristic life (β ∈ {0.8, 1, 1.12, 1.4, 1.5}).
func Figure10(opt Options) ([]Series, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	var out []Series
	for _, beta := range []float64{0.8, 1.0, 1.12, 1.4, 1.5} {
		s, _, err := runSeries(fmt.Sprintf("β = %.2f", beta),
			core.BaseCase().WithOpShape(beta), opt)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Table3Row is one row of Table 3: first-year DDFs per 1,000 groups and
// the ratio against the MTTDL estimate.
type Table3Row struct {
	Assumptions string
	FirstYear   float64
	Ratio       float64
}

// Table3 reproduces Table 3: the MTTDL row, the base case without
// scrubbing, and the 336/168/48/12-hour scrub rows, all at one year.
func Table3(opt Options) ([]Table3Row, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	in := analytic.MTTDLInput{N: 7, MTBF: core.BaseMTBFHours, MTTR: 12}
	mttdlYear, err := analytic.ExpectedDDFs(in, analytic.HoursPerYear, 1000)
	if err != nil {
		return nil, err
	}
	rows := []Table3Row{{Assumptions: "MTTDL", FirstYear: mttdlYear, Ratio: 1}}
	cases := []struct {
		name  string
		hours float64
	}{
		{"base case w/o scrub", 0},
		{"336 h scrub", 336},
		{"168 h scrub", 168},
		{"48 h scrub", 48},
		{"12 h scrub", 12},
	}
	for _, c := range cases {
		p := core.BaseCase().WithScrubPeriod(c.hours)
		// Table 3 is a first-year quantity; simulating one year keeps the
		// paper-scale run cheap without changing the counted window.
		p.MissionHours = analytic.HoursPerYear
		res, err := opt.run(p)
		if err != nil {
			return nil, err
		}
		fy := res.FirstYearDDFsPer1000()
		rows = append(rows, Table3Row{
			Assumptions: c.name,
			FirstYear:   fy,
			Ratio:       fy / mttdlYear,
		})
	}
	return rows, nil
}
