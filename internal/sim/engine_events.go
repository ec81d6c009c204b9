package sim

import "raidrel/internal/rng"

// EventEngine simulates a RAID-group chronology with a discrete-event
// queue. It is the one-group driver of the chronology core the fleet
// engine (SimulateFleetInto) also drives: the group runs on the caller's
// RNG, its spare pool is cfg.Spares, and there is no repair-slot cap. It
// is the only single-group engine that models finite spare pools and
// coupled component topologies, and the one SimulateTraced streams from.
type EventEngine struct{}

var _ Engine = EventEngine{}

// SimulateInto implements Engine: it runs one chronology appending the
// DDFs to buf (which may be nil) and returns the extended slice plus the
// iteration's log likelihood-ratio weight. r advances in place exactly as
// if every draw were taken from it directly. The core's scratch — event
// queue, slot state, defect lists, spare pool — is pooled and reused, so
// the steady-state per-iteration cost of an event-free chronology is zero
// allocations. A config the event engine cannot run (EngineSupports) is
// rejected before any draw.
func (e EventEngine) SimulateInto(cfg Config, r *rng.RNG, buf []DDF) ([]DDF, float64, error) {
	if err := EngineSupports(e, cfg); err != nil {
		return buf, 0, err
	}
	return simulateGroup(cfg, r, nil, buf)
}

// SimulateTraced runs one chronology on the event engine while streaming
// every event (drive failures, restores, defect creations and corrections,
// component failures and repairs, DDFs) to obs in time order. Pass a
// *Trace to record the full Fig.-5-style timeline. Traced and untraced
// runs decide every DDF identically. The importance-sampling weight is
// discarded; tracing is a debugging aid, not an estimation path.
func SimulateTraced(cfg Config, r *rng.RNG, obs Observer) ([]DDF, error) {
	out, _, err := simulateGroup(cfg, r, obs, nil)
	return out, err
}

// simulateGroup is the one-group driver: a single group on the caller's
// stream, with bias, topology and the observer allowed.
func simulateGroup(cfg Config, r *rng.RNG, obs Observer, buf []DDF) ([]DDF, float64, error) {
	if err := cfg.Validate(); err != nil {
		return buf, 0, err
	}
	c := chronPool.Get().(*chronology)
	c.reset(&cfg, 1, cfg.Spares, 0)
	c.fleet, c.r, c.obs, c.ddfs = false, r, obs, buf
	c.run()
	out, logW := c.ddfs, c.logW
	c.release()
	chronPool.Put(c)
	return out, logW, nil
}
