package sim

import (
	"fmt"

	"raidrel/internal/dist"
)

// Engine feature support matrix. Config.Validate accepts every expressible
// configuration; whether a given engine can execute it is a separate,
// per-engine question answered here, uniformly, so the runner, the service
// layer, and direct engine callers all reject inexpressible combinations
// with the same descriptive errors. The last column is what a nil engine
// resolves to (DefaultEngine):
//
//	feature              event  interval  block  nil
//	finite spares          ✓       –        –    event
//	coupled topology       ✓       –        –    event
//	variance reduction     –       –        ✓    block
//	uncompiled dists       ✓       ✓        –    event
//
// The per-slot engines precompute each slot's chronology independently, so
// anything that couples the slots — a shared spare pool, a shared
// component — is event-engine-only; the variance-reduction schemes are
// defined over block-mean tallies only the block engine produces; and the
// block engine's exp-domain transforms need every distribution compiled to
// a Weibull or exponential kernel.

// DefaultEngine returns the engine a nil Engine resolves to: the fastest
// engine that can run cfg. That is the block engine, unless cfg couples its
// slots (a finite spare pool or a coupled topology) or has a distribution
// without a compiled kernel — those run on the event engine. A VR config
// always resolves to the block engine, the only one implementing it, so
// EngineSupports names any conflicting feature. Fleet runs (RunSpec.Fleet)
// bypass engines altogether. This is the single home of the default-engine
// rule: the runner, the gate, and campaign fingerprints all resolve nil
// through it.
func DefaultEngine(cfg Config) Engine {
	if cfg.VR.Enabled() {
		return BlockEngine{}
	}
	if cfg.Spares != nil || cfg.Topology.Coupled() || uncompiled(&cfg) != "" {
		return EventEngine{}
	}
	return BlockEngine{}
}

// uncompiled names the first configured distribution without a compiled
// (Weibull or exponential) kernel — the block engine's requirement — or
// returns "" when every one compiles.
func uncompiled(cfg *Config) string {
	for i := 0; i < cfg.Drives; i++ {
		if k := dist.Compile(cfg.ttopFor(i)); !k.Compiled() {
			return fmt.Sprintf("slot %d's TTOp distribution", i)
		}
	}
	for _, t := range [...]struct {
		name string
		d    dist.Distribution
	}{{"TTR", cfg.Trans.TTR}, {"TTLd", cfg.Trans.TTLd}, {"TTScrub", cfg.Trans.TTScrub}} {
		if t.d == nil {
			continue
		}
		if k := dist.Compile(t.d); !k.Compiled() {
			return "the " + t.name + " distribution"
		}
	}
	return ""
}

// engineName returns the human name used in gating errors.
func engineName(e Engine) string {
	switch e.(type) {
	case EventEngine:
		return "event"
	case IntervalEngine:
		return "interval"
	case BlockEngine:
		return "block"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// errUnsupported formats the uniform per-slot-engine rejection.
func errUnsupported(engine, feature string) error {
	return fmt.Errorf("sim: the %s engine cannot model %s (slots are precomputed independently); use EventEngine", engine, feature)
}

// errVRNeedsBlock is the uniform rejection of VR off the block engine.
func errVRNeedsBlock() error {
	return fmt.Errorf("sim: variance reduction requires the block engine (set Engine: BlockEngine{})")
}

// EngineSupports reports whether engine (nil meaning DefaultEngine(cfg))
// can execute cfg, returning a descriptive error naming the
// unsupported feature otherwise. The runner calls it before dispatching;
// each engine's SimulateInto also enforces its own rows, so direct callers
// get the same errors.
func EngineSupports(engine Engine, cfg Config) error {
	if engine == nil {
		engine = DefaultEngine(cfg)
	}
	name := engineName(engine)
	perSlot := false
	switch engine.(type) {
	case IntervalEngine, BlockEngine:
		perSlot = true
	}
	if perSlot {
		if cfg.Spares != nil {
			return errUnsupported(name, "a finite spare pool")
		}
		if cfg.Topology.Coupled() {
			return errUnsupported(name, "a coupled component topology")
		}
	}
	if cfg.VR.Enabled() {
		if _, ok := engine.(BlockEngine); !ok {
			return errVRNeedsBlock()
		}
	}
	return nil
}
