package experiments

import (
	"fmt"

	"raidrel/internal/core"
)

// SensitivityRow measures how the 10-year DDF count responds when one
// input moves while everything else stays at the base case — the
// "tool by which RAID designers can better evaluate the impact" of §8.
type SensitivityRow struct {
	Parameter string
	// Low/High are the DDFs per 1,000 groups with the parameter scaled
	// down/up by the sweep factor.
	Low, High float64
	// Base is the unperturbed count (shared across rows).
	Base float64
	// Swing is High - Low: the tornado-chart bar length.
	Swing float64
}

// Sensitivity perturbs each of the model's main inputs by ±factor (e.g.
// 0.5 doubles and halves) around the base case and reports the DDF swing,
// sorted by descending impact.
func Sensitivity(factor float64, opt Options) ([]SensitivityRow, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if !(factor > 0) || factor >= 1 {
		return nil, fmt.Errorf("experiments: sensitivity factor must be in (0,1), got %v", factor)
	}
	base := core.BaseCase()
	run := func(p core.Params) (float64, error) {
		res, err := opt.run(p)
		if err != nil {
			return 0, err
		}
		return res.DDFsPer1000GroupsAt(p.MissionHours), nil
	}
	baseline, err := run(base)
	if err != nil {
		return nil, err
	}
	lo, hi := 1-factor, 1+factor
	perturbations := []struct {
		name   string
		scaled func(p core.Params, k float64) core.Params
	}{
		{"TTOp characteristic life η", func(p core.Params, k float64) core.Params {
			p.TTOp.Scale *= k
			return p
		}},
		{"TTOp shape β", func(p core.Params, k float64) core.Params {
			p.TTOp.Shape *= k
			return p
		}},
		{"restore time (γ and η)", func(p core.Params, k float64) core.Params {
			p.TTR.Location *= k
			p.TTR.Scale *= k
			return p
		}},
		{"latent defect rate", func(p core.Params, k float64) core.Params {
			p.TTLd.Scale /= k // rate scales with k => scale divides
			return p
		}},
		{"scrub period", func(p core.Params, k float64) core.Params {
			return p.WithScrubPeriod(p.TTScrub.Scale * k)
		}},
	}
	rows := make([]SensitivityRow, 0, len(perturbations))
	for _, pert := range perturbations {
		lowV, err := run(pert.scaled(base, lo))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s low: %w", pert.name, err)
		}
		highV, err := run(pert.scaled(base, hi))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s high: %w", pert.name, err)
		}
		swing := highV - lowV
		if swing < 0 {
			swing = -swing
		}
		rows = append(rows, SensitivityRow{
			Parameter: pert.name,
			Low:       lowV,
			High:      highV,
			Base:      baseline,
			Swing:     swing,
		})
	}
	// Sort descending by swing (tornado order); insertion sort keeps it
	// dependency-free and the list is tiny.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].Swing > rows[j-1].Swing; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	return rows, nil
}
