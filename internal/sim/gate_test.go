package sim

import (
	"strings"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// The full feature × engine support matrix, enforced uniformly: every
// inexpressible combination is rejected — by EngineSupports, by
// RunSpec.Validate, by the runner, and by the engine's own SimulateInto —
// with the same descriptive error; every expressible one runs on all four.
func TestEngineFeatureMatrix(t *testing.T) {
	topo := func() *Topology {
		return &Topology{Components: []Component{{
			Name: "enc", Drives: []int{0, 1},
			TTOp: dist.MustExponential(1e-5),
			TTR:  dist.MustExponential(1e-3),
		}}}
	}
	spares := func() *SparePolicy { return &SparePolicy{Initial: 1, ReplenishHours: 24} }
	features := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(c *Config) {}},
		{"bias", func(c *Config) { c.Bias = Bias{Op: 4} }},
		{"spares", func(c *Config) { c.Spares = spares() }},
		{"topology", func(c *Config) { c.Topology = topo() }},
		{"uncompiled", func(c *Config) {
			c.SlotTTOp = make([]dist.Distribution, c.Drives)
			c.SlotTTOp[3] = dist.MustTruncated(dist.MustNormal(2e5, 5e4), 0, 1e6)
		}},
		{"vr", func(c *Config) { c.VR = VR{Antithetic: true} }},
		{"bias+topology", func(c *Config) { c.Bias = Bias{Op: 4}; c.Topology = topo() }},
		{"vr+spares", func(c *Config) { c.VR = VR{Antithetic: true}; c.Spares = spares() }},
	}
	engines := []struct {
		name string
		e    Engine
	}{
		{"default", nil}, // nil resolves through DefaultEngine
		{"event-explicit", EventEngine{}},
		{"block", BlockEngine{}},
	}
	// want[feature][engine] is the required error substring; "" means the
	// combination must be accepted.
	want := map[string]map[string]string{
		"plain":         {"default": "", "event-explicit": "", "block": ""},
		"bias":          {"default": "", "event-explicit": "", "block": ""},
		"spares":        {"default": "", "event-explicit": "", "block": "finite spare pool"},
		"topology":      {"default": "", "event-explicit": "", "block": "coupled component topology"},
		"uncompiled":    {"default": "", "event-explicit": "", "block": "slot 3's TTOp distribution does not compile"},
		"vr":            {"default": "", "event-explicit": "variance reduction requires the block engine", "block": ""},
		"bias+topology": {"default": "", "event-explicit": "", "block": "coupled component topology"},
		// VR resolves to its only engine, so the default names the spares.
		"vr+spares": {"default": "finite spare pool", "event-explicit": "variance reduction requires the block engine", "block": "finite spare pool"},
	}

	for _, f := range features {
		for _, e := range engines {
			cfg := fastConfig()
			cfg.Mission = 2000 // keep the accepted runs cheap
			f.mut(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s: config invalid before engine choice: %v", f.name, err)
			}
			wantSub := want[f.name][e.name]

			spec := RunSpec{Config: cfg, Iterations: 8, Seed: 1, Workers: 2, Engine: e.e}
			direct := e.e
			if direct == nil {
				direct = DefaultEngine(cfg)
			}
			_, _, simErr := direct.SimulateInto(cfg, rng.New(7), nil)
			for _, v := range []struct {
				which string
				err   error
			}{
				{"EngineSupports", EngineSupports(e.e, cfg)},
				{"RunSpec.Validate", spec.Validate()},
				{"RunCollect", RunCollect(spec, CollectorFunc(func(int, []DDF, float64) {}))},
				{"SimulateInto", simErr},
			} {
				if wantSub == "" {
					if v.err != nil {
						t.Errorf("%s × %s: %s rejected expressible combination: %v", f.name, e.name, v.which, v.err)
					}
				} else if v.err == nil || !strings.Contains(v.err.Error(), wantSub) {
					t.Errorf("%s × %s: %s = %v, want substring %q", f.name, e.name, v.which, v.err, wantSub)
				}
			}
		}
	}

	// Spares + coupled topology is inexpressible on any engine and dies at
	// Validate.
	cfg := fastConfig()
	cfg.Spares = &SparePolicy{Initial: 1}
	cfg.Topology = topo()
	if err := cfg.Validate(); err == nil {
		t.Error("spares+topology passed Validate")
	}
}

// DefaultEngine picks the block engine wherever it can run the config and
// the event engine wherever it cannot; VR always resolves to the block
// engine, its only implementation.
func TestDefaultEngine(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want Engine
	}{
		{"plain", func(c *Config) {}, BlockEngine{}},
		{"bias", func(c *Config) { c.Bias = Bias{Op: 4} }, BlockEngine{}},
		{"vr", func(c *Config) { c.VR = VR{Antithetic: true} }, BlockEngine{}},
		{"spares", func(c *Config) { c.Spares = &SparePolicy{Initial: 1, ReplenishHours: 24} }, EventEngine{}},
		{"topology", func(c *Config) {
			c.Topology = &Topology{Components: []Component{{
				Name: "enc", Drives: []int{0, 1},
				TTOp: dist.MustExponential(1e-5), TTR: dist.MustExponential(1e-3),
			}}}
		}, EventEngine{}},
		{"uncompiled ttop", func(c *Config) {
			c.Trans.TTOp = dist.MustCompetingRisks([]dist.Distribution{dist.MustWeibull(0.6, 3e6, 0), dist.MustWeibull(3, 2e5, 0)})
		}, EventEngine{}},
		{"uncompiled slot", func(c *Config) {
			c.SlotTTOp = make([]dist.Distribution, c.Drives)
			c.SlotTTOp[3] = dist.MustTruncated(dist.MustNormal(2e5, 5e4), 0, 1e6)
		}, EventEngine{}},
	}
	for _, c := range cases {
		cfg := fastConfig()
		cfg.Mission = 2000
		c.mut(&cfg)
		got := DefaultEngine(cfg)
		if got != c.want {
			t.Errorf("%s: DefaultEngine = %T, want %T", c.name, got, c.want)
		}
		// Whatever it picks must run the config.
		if err := RunCollect(RunSpec{Config: cfg, Iterations: 8, Seed: 1, Workers: 2},
			CollectorFunc(func(int, []DDF, float64) {})); err != nil {
			t.Errorf("%s: default engine rejected the config: %v", c.name, err)
		}
		// And the block engine rejects exactly the uncompiled configs it was
		// steered away from, naming the distribution.
		if strings.HasPrefix(c.name, "uncompiled") {
			if _, _, err := (BlockEngine{}).SimulateInto(cfg, rng.New(1), nil); err == nil || !strings.Contains(err.Error(), "does not compile") {
				t.Errorf("%s: block engine = %v, want a does-not-compile rejection", c.name, err)
			}
		}
	}
}
