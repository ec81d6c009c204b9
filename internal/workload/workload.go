// Package workload models the IO usage that drives latent-defect creation.
// The paper's §6.3 derives the hourly data-corruption rate as the product
// of a read-error rate (errors per byte, measured across NetApp fleet
// studies) and an hourly read volume; Table 1 tabulates the grid. This
// package reproduces that derivation and names the workload profiles the
// examples sweep.
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

// Standard profiles used by the examples.
var (
	// Archive is a mostly idle cold-storage system.
	Archive = Profile{Name: "archive", BytesPerHour: 1.35e8, ForegroundShare: 0.05}
	// Nearline matches the paper's low read volume.
	Nearline = Profile{Name: "nearline", BytesPerHour: ReadRateLow, ForegroundShare: 0.25}
	// Transactional matches the paper's high read volume.
	Transactional = Profile{Name: "transactional", BytesPerHour: ReadRateHigh, ForegroundShare: 0.60}
)
