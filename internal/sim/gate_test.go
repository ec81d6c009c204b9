package sim

import (
	"strings"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// The full feature × engine support matrix, enforced uniformly: every
// inexpressible combination is rejected — by EngineSupports, by the
// runner, and by the engine's own SimulateInto — with a descriptive error;
// every expressible one runs.
func TestEngineFeatureMatrix(t *testing.T) {
	topo := func() *Topology {
		return &Topology{Components: []Component{{
			Name: "enc", Drives: []int{0, 1},
			TTOp: dist.MustExponential(1e-5),
			TTR:  dist.MustExponential(1e-3),
		}}}
	}
	features := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(c *Config) {}},
		{"bias", func(c *Config) { c.Bias = Bias{Op: 4} }},
		{"spares", func(c *Config) { c.Spares = &SparePolicy{Initial: 1, ReplenishHours: 24} }},
		{"topology", func(c *Config) { c.Topology = topo() }},
		{"vr", func(c *Config) { c.VR = VR{Antithetic: true} }},
		{"bias+topology", func(c *Config) { c.Bias = Bias{Op: 4}; c.Topology = topo() }},
	}
	engines := []struct {
		name string
		e    Engine
	}{
		{"default", nil}, // nil resolves through DefaultEngine
		{"event-explicit", EventEngine{}},
		{"interval", IntervalEngine{}},
		{"block", BlockEngine{}},
	}
	// want[feature][engine] is the required error substring; "" means the
	// combination must be accepted.
	want := map[string]map[string]string{
		"plain":    {"default": "", "event-explicit": "", "interval": "", "block": ""},
		"bias":     {"default": "", "event-explicit": "", "interval": "", "block": ""},
		"spares":   {"default": "", "event-explicit": "", "interval": "finite spare pool", "block": "finite spare pool"},
		"topology": {"default": "", "event-explicit": "", "interval": "coupled component topology", "block": "coupled component topology"},
		"vr": {
			"default": "", "event-explicit": "variance reduction requires the block engine",
			"interval": "variance reduction requires the block engine", "block": "",
		},
		"bias+topology": {"default": "", "event-explicit": "", "interval": "coupled component topology", "block": "coupled component topology"},
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

			gateErr := EngineSupports(e.e, cfg)
			runErr := RunCollect(RunSpec{Config: cfg, Iterations: 8, Seed: 1, Workers: 2, Engine: e.e},
				CollectorFunc(func(int, []DDF, float64) {}))
			for which, err := range map[string]error{"EngineSupports": gateErr, "RunCollect": runErr} {
				if wantSub == "" {
					if err != nil {
						t.Errorf("%s × %s: %s rejected expressible combination: %v", f.name, e.name, which, err)
					}
				} else if err == nil || !strings.Contains(err.Error(), wantSub) {
					t.Errorf("%s × %s: %s = %v, want substring %q", f.name, e.name, which, err, wantSub)
				}
			}

			// The engines' own SimulateInto entry points agree with the
			// gate for their per-slot rows (VR is a runner-level scheme the
			// engines never see, so it is exempt here).
			if f.name == "vr" {
				continue
			}
			switch e.e.(type) {
			case IntervalEngine, BlockEngine:
			default:
				continue
			}
			_, _, err := e.e.SimulateInto(cfg, rng.New(7), nil)
			if wantSub == "" {
				if err != nil {
					t.Errorf("%s × %s: SimulateInto rejected expressible combination: %v", f.name, e.name, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), wantSub) {
				t.Errorf("%s × %s: SimulateInto = %v, want substring %q", f.name, e.name, err, wantSub)
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
			c.SlotTTOp[3] = dist.MustLogNormal(10, 1)
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
