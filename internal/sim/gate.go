package sim

import (
	"errors"
	"fmt"

	"raidrel/internal/dist"
)

// Engine × feature support table. Config.Validate accepts every
// expressible configuration; whether an engine can execute it is answered
// by EngineSupports alone. RunSpec.Validate (and through it the runner,
// campaigns and the service), DefaultEngine, and both engines' SimulateInto
// read this one table, so every path returns the same verdict before any
// simulation runs. The last column is what a nil engine resolves to
// (DefaultEngine):
//
//	feature                   event  block  nil
//	finite spares               ✓      –    event
//	coupled topology            ✓      –    event
//	uncompiled distribution     ✓      –    event
//	variance reduction          –      ✓    block
//
// The block engine precomputes each slot's chronology independently, so
// anything that couples the slots — a shared spare pool, a shared
// component — is event-engine-only; its exp-domain transforms need every
// distribution compiled to a Weibull or exponential kernel; and the
// variance-reduction schemes are defined over block-mean tallies only the
// block engine produces. A VR config resolves to the block engine even
// when another row rules it out, so EngineSupports names that row. Fleet
// runs (RunSpec.Fleet) bypass engines altogether.

// DefaultEngine returns the engine a nil Engine resolves to: the block
// engine when cfg enables VR or the block engine supports cfg, else the
// event engine. The runner, the gate, and campaign fingerprints all
// resolve nil through it.
func DefaultEngine(cfg Config) Engine {
	if cfg.VR.Enabled() || EngineSupports(BlockEngine{}, cfg) == nil {
		return BlockEngine{}
	}
	return EventEngine{}
}

// EngineSupports reports whether engine (nil meaning DefaultEngine(cfg))
// can execute cfg, returning a descriptive error naming the unsupported
// feature otherwise.
func EngineSupports(engine Engine, cfg Config) error {
	if engine == nil {
		engine = DefaultEngine(cfg)
	}
	if _, block := engine.(BlockEngine); !block {
		if cfg.VR.Enabled() {
			return errors.New("sim: variance reduction requires the block engine (set Engine: BlockEngine{})")
		}
		return nil
	}
	const useEvent = " (slots are precomputed independently); use EventEngine"
	switch {
	case cfg.Spares != nil:
		return errors.New("sim: the block engine cannot model a finite spare pool" + useEvent)
	case cfg.Topology.Coupled():
		return errors.New("sim: the block engine cannot model a coupled component topology" + useEvent)
	}
	if what := uncompiled(&cfg); what != "" {
		return fmt.Errorf("sim: the block engine requires compiled (Weibull or Exponential) kernels, but %s does not compile; use EventEngine", what)
	}
	return nil
}

// uncompiled names the first configured distribution without a compiled
// (Weibull or exponential) kernel, or returns "" when every one compiles.
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
