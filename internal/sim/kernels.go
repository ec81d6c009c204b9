package sim

import (
	"math"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// cfgKernels is a Config's transition distributions compiled to sampler
// kernels (dist.Compile): per-draw constants precomputed, dispatch
// devirtualized, and — under bias — the θ-tilt fused with the
// likelihood-ratio bookkeeping. Both engines compile the configuration
// into their pooled scratch at the top of every run; compilation is a
// handful of type switches (no allocation once the per-slot slices have
// warmed up), which is noise next to one group chronology, and keeping it
// inside the engines means the public Engine contract and every caller
// stay unchanged.
//
// Kernel draws are bit-identical to the interface draws they replace
// (dist.Kernel's contract), so engines may mix kernel and interface paths
// — the traced run, scripted test distributions, checkpoint resume — and
// still reproduce the same chronology from the same stream.
type cfgKernels struct {
	ttop     []dist.Kernel       // per slot; honours SlotTTOp overrides
	ttopTilt []dist.TiltedKernel // per slot, compiled when Bias.Op is active
	ttr      dist.Kernel
	ttld     dist.Kernel
	ttldTilt dist.TiltedKernel
	scrub    dist.Kernel
	biasOp   bool
	biasLd   bool
	// plainTTLd marks the dominant defect configuration — homogeneous
	// renewal process, no tilt — so the hot loops can draw straight from
	// the ttld kernel without re-dispatching on the process type at every
	// arrival.
	plainTTLd bool
}

// compile resolves cfg's distributions into kernels, reusing the per-slot
// backing arrays across runs. cfg must already be validated.
func (k *cfgKernels) compile(cfg *Config) {
	k.biasOp = cfg.Bias.opEnabled()
	k.biasLd = cfg.Bias.ldEnabled()

	if k.biasOp {
		if cap(k.ttopTilt) < cfg.Drives {
			k.ttopTilt = make([]dist.TiltedKernel, cfg.Drives)
		}
		k.ttopTilt = k.ttopTilt[:cfg.Drives]
		for i := range k.ttopTilt {
			k.ttopTilt[i] = dist.CompileTilted(cfg.ttopFor(i), cfg.Bias.Op)
		}
	} else {
		if cap(k.ttop) < cfg.Drives {
			k.ttop = make([]dist.Kernel, cfg.Drives)
		}
		k.ttop = k.ttop[:cfg.Drives]
		for i := range k.ttop {
			k.ttop[i] = dist.Compile(cfg.ttopFor(i))
		}
	}

	k.ttr = dist.Compile(cfg.Trans.TTR)
	k.plainTTLd = cfg.Trans.TTLd != nil && !k.biasLd
	if cfg.Trans.TTLd != nil {
		if k.biasLd {
			k.ttldTilt = dist.CompileTilted(cfg.Trans.TTLd, cfg.Bias.Ld)
		} else {
			k.ttld = dist.Compile(cfg.Trans.TTLd)
		}
	}
	if cfg.Trans.TTScrub != nil {
		k.scrub = dist.Compile(cfg.Trans.TTScrub)
	}
}

// release drops the distribution references the kernels retain, keeping
// the per-slot backing arrays for the next run. Pooled scratch must not
// pin a caller's configuration beyond its SimulateInto call.
func (k *cfgKernels) release() {
	for i := range k.ttop {
		k.ttop[i] = dist.Kernel{}
	}
	for i := range k.ttopTilt {
		k.ttopTilt[i] = dist.TiltedKernel{}
	}
	k.ttop = k.ttop[:0]
	k.ttopTilt = k.ttopTilt[:0]
	k.ttr = dist.Kernel{}
	k.ttld = dist.Kernel{}
	k.ttldTilt = dist.TiltedKernel{}
	k.scrub = dist.Kernel{}
}

// drawTTOp samples a slot's next operational-failure delay measured from
// `from`, returning the delay and (under bias) the draw's log likelihood
// ratio, censored at the residual mission: the caller discards events
// past cfg.Mission, so a draw landing beyond it must carry the censored
// survival-mass ratio to keep the weight bounded.
func (k *cfgKernels) drawTTOp(cfg *Config, slot int, from float64, r *rng.RNG) (dt, logLR float64) {
	if k.biasOp {
		return k.ttopTilt[slot].DrawLR(cfg.Mission-from, r)
	}
	return k.ttop[slot].Draw(r), 0
}

// nextDefect returns the absolute time of the next latent-defect arrival
// after `from`, or +Inf when the defect process is disabled, together
// with the draw's importance-sampling log likelihood ratio (0 unless
// Bias.Ld is active). The homogeneous case renewal-samples TTLd through
// the compiled kernel — tilted and censored at `horizon`, the time beyond
// which the caller discards the arrival; the NHPP case thins a Poisson
// stream at TTLdRateMax against the instantaneous rate.
func (k *cfgKernels) nextDefect(cfg *Config, from, horizon float64, r *rng.RNG) (float64, float64) {
	switch {
	case cfg.Trans.TTLdRate != nil:
		t := from
		for {
			t += r.ExpFloat64() / cfg.Trans.TTLdRateMax
			if t > cfg.Mission {
				return t, 0 // beyond the horizon; caller discards
			}
			rate := cfg.Trans.TTLdRate(t)
			if rate < 0 || rate > cfg.Trans.TTLdRateMax {
				// A misbehaving rate function would silently bias the
				// process; clamp to the declared bound.
				if rate < 0 {
					rate = 0
				} else {
					rate = cfg.Trans.TTLdRateMax
				}
			}
			if r.Float64()*cfg.Trans.TTLdRateMax < rate {
				return t, 0
			}
		}
	case cfg.Trans.TTLd != nil:
		if k.biasLd {
			dt, logLR := k.ttldTilt.DrawLR(horizon-from, r)
			return from + dt, logLR
		}
		return from + k.ttld.Draw(r), 0
	default:
		return math.Inf(1), 0
	}
}
