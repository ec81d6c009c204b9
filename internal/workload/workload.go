// Package workload models the IO usage that drives latent-defect creation.
// The paper's §6.3 derives the hourly data-corruption rate as the product
// of a read-error rate (errors per byte, measured across NetApp fleet
// studies) and an hourly read volume; Table 1 tabulates the grid. This
// package reproduces that derivation, names the workload profiles the
// examples sweep, and gives a busy/idle duty cycle's time-varying defect
// rate.
package workload

import (
	"fmt"
	"math"
)

// Fleet-study read-error rates from §6.3, in errors per byte read.
const (
	// RERLow is the 63,000-drive five-month study (8e-15 err/B).
	RERLow = 8.0e-15
	// RERMedium is the 282,000-drive 2004 study (8e-14 err/B).
	RERMedium = 8.0e-14
	// RERHigh is the 66,800-drive study (3.2e-13 err/B).
	RERHigh = 3.2e-13
)

// Hourly read volumes from §6.3, bytes per hour per drive.
const (
	// ReadRateLow is 1.35e9 B/h (the paper's low bound, ~2.7e11 B/day
	// fleet measurement scaled down).
	ReadRateLow = 1.35e9
	// ReadRateHigh is 1.35e10 B/h.
	ReadRateHigh = 1.35e10
)

// DefectRate returns latent-defect arrivals per hour for a drive reading
// bytesPerHour at the given read-error rate.
func DefectRate(errorsPerByte, bytesPerHour float64) (float64, error) {
	if !(errorsPerByte > 0) || math.IsInf(errorsPerByte, 0) {
		return 0, fmt.Errorf("workload: errors/byte must be positive, got %v", errorsPerByte)
	}
	if !(bytesPerHour > 0) || math.IsInf(bytesPerHour, 0) {
		return 0, fmt.Errorf("workload: bytes/hour must be positive, got %v", bytesPerHour)
	}
	return errorsPerByte * bytesPerHour, nil
}

// RateCell is one entry of Table 1.
type RateCell struct {
	RERName       string
	RER           float64 // errors per byte
	ReadRateName  string
	BytesPerHour  float64
	ErrorsPerHour float64
}

// Table1 reproduces the paper's Table 1 grid: three read-error rates by
// two hourly read volumes, in row-major order (low/medium/high RER × low/
// high read rate).
func Table1() []RateCell {
	rers := []struct {
		name string
		v    float64
	}{
		{"low", RERLow}, {"medium", RERMedium}, {"high", RERHigh},
	}
	rates := []struct {
		name string
		v    float64
	}{
		{"low", ReadRateLow}, {"high", ReadRateHigh},
	}
	out := make([]RateCell, 0, len(rers)*len(rates))
	for _, rer := range rers {
		for _, rr := range rates {
			out = append(out, RateCell{
				RERName:       rer.name,
				RER:           rer.v,
				ReadRateName:  rr.name,
				BytesPerHour:  rr.v,
				ErrorsPerHour: rer.v * rr.v,
			})
		}
	}
	return out
}

// Profile describes a sustained IO mix for rebuild/scrub interference
// calculations.
type Profile struct {
	Name            string
	BytesPerHour    float64 // read volume driving corruption
	ForegroundShare float64 // fraction of bandwidth consumed by user IO
}

// DutyCycle describes a periodic busy/idle IO pattern: BusyHours of
// BusyBytesPerHour followed by (PeriodHours - BusyHours) of
// IdleBytesPerHour, repeating. §6.3 makes corruption usage-dependent;
// a duty cycle makes that dependence dynamic within the mission.
type DutyCycle struct {
	PeriodHours      float64
	BusyHours        float64
	BusyBytesPerHour float64
	IdleBytesPerHour float64
}

// Validate checks the cycle.
func (d DutyCycle) Validate() error {
	if !(d.PeriodHours > 0) || math.IsInf(d.PeriodHours, 0) {
		return fmt.Errorf("workload: invalid period %v", d.PeriodHours)
	}
	if d.BusyHours < 0 || d.BusyHours > d.PeriodHours {
		return fmt.Errorf("workload: busy hours %v outside [0, %v]", d.BusyHours, d.PeriodHours)
	}
	if !(d.BusyBytesPerHour > 0) || !(d.IdleBytesPerHour >= 0) {
		return fmt.Errorf("workload: invalid volumes busy=%v idle=%v", d.BusyBytesPerHour, d.IdleBytesPerHour)
	}
	return nil
}

// DefectRateFunc returns the instantaneous latent-defect rate function
// rate(t) = RER × bytes/hour(t) plus its upper bound, ready for the
// simulator's non-homogeneous defect process.
func (d DutyCycle) DefectRateFunc(errorsPerByte float64) (fn func(t float64) float64, max float64, err error) {
	if err := d.Validate(); err != nil {
		return nil, 0, err
	}
	if !(errorsPerByte > 0) || math.IsInf(errorsPerByte, 0) {
		return nil, 0, fmt.Errorf("workload: errors/byte must be positive, got %v", errorsPerByte)
	}
	busyRate := errorsPerByte * d.BusyBytesPerHour
	idleRate := errorsPerByte * d.IdleBytesPerHour
	fn = func(t float64) float64 {
		phase := math.Mod(t, d.PeriodHours)
		if phase < 0 {
			phase += d.PeriodHours
		}
		if phase < d.BusyHours {
			return busyRate
		}
		return idleRate
	}
	return fn, math.Max(busyRate, idleRate), nil
}

// MeanRate returns the cycle's time-averaged defect rate.
func (d DutyCycle) MeanRate(errorsPerByte float64) (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if !(errorsPerByte > 0) || math.IsInf(errorsPerByte, 0) {
		return 0, fmt.Errorf("workload: errors/byte must be positive, got %v", errorsPerByte)
	}
	busy := d.BusyHours / d.PeriodHours
	return errorsPerByte * (busy*d.BusyBytesPerHour + (1-busy)*d.IdleBytesPerHour), nil
}

// Standard profiles used by the examples.
var (
	// Archive is a mostly idle cold-storage system.
	Archive = Profile{Name: "archive", BytesPerHour: 1.35e8, ForegroundShare: 0.05}
	// Nearline matches the paper's low read volume.
	Nearline = Profile{Name: "nearline", BytesPerHour: ReadRateLow, ForegroundShare: 0.25}
	// Transactional matches the paper's high read volume.
	Transactional = Profile{Name: "transactional", BytesPerHour: ReadRateHigh, ForegroundShare: 0.60}
)
