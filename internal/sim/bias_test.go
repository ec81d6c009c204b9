package sim

import (
	"math"
	"reflect"
	"testing"

	"raidrel/internal/dist"
)

// rareConfig is a constant-rate, no-latent-defect configuration with a
// per-group DDF probability of a few per thousand — rare enough that
// importance sampling visibly helps, common enough that an unbiased
// reference estimate is still affordable in a test.
func rareConfig() Config {
	return Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    8760,
		Trans: Transitions{
			TTOp: dist.MustExponential(1e-5), // MTBF 100,000 h
			TTR:  dist.MustExponential(1e-2), // MTTR 100 h
		},
	}
}

func TestBiasValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"zero value", func(c *Config) {}, true},
		{"op factor 1 is off", func(c *Config) { c.Bias.Op = 1 }, true},
		{"op factor 4", func(c *Config) { c.Bias.Op = 4 }, true},
		{"op factor below 1", func(c *Config) { c.Bias.Op = 0.5 }, true},
		{"negative op factor", func(c *Config) { c.Bias.Op = -2 }, false},
		{"NaN op factor", func(c *Config) { c.Bias.Op = math.NaN() }, false},
		{"infinite op factor", func(c *Config) { c.Bias.Op = math.Inf(1) }, false},
		{"negative ld factor", func(c *Config) { c.Bias.Ld = -1 }, false},
		{"ld bias without latent defects", func(c *Config) { c.Bias.Ld = 3 }, false},
		{"ld bias with renewal defects", func(c *Config) {
			c.Bias.Ld = 3
			c.Trans.TTLd = dist.MustExponential(1e-4)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := rareConfig()
			tc.mutate(&c)
			err := c.Validate()
			if tc.ok && err != nil {
				t.Errorf("valid config rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// A bias factor of exactly 1 (or 0) must take the plain Monte Carlo path
// bit for bit: same events, all log weights exactly zero.
func TestBiasFactorOneIsPlainMonteCarlo(t *testing.T) {
	run := func(b Bias) *SparseResult {
		cfg := fastConfig()
		cfg.Bias = b
		res, err := RunSparse(RunSpec{Config: cfg, Iterations: 500, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(Bias{})
	one := run(Bias{Op: 1, Ld: 1})
	if !reflect.DeepEqual(plain.Events, one.Events) {
		t.Error("Bias{Op:1, Ld:1} events differ from plain run")
	}
	if plain.Weighted() || one.Weighted() {
		t.Error("unbiased run reports non-unit weights")
	}
	for _, e := range plain.Events {
		if e.LogW != 0 {
			t.Fatalf("unbiased event carries log weight %v", e.LogW)
		}
	}
}

// Worker count must not change a biased run's events or weights: stream i
// always drives iteration i, and the merger reassembles in order.
func TestBiasedWorkerCountInvariance(t *testing.T) {
	run := func(workers int) *SparseResult {
		cfg := fastConfig()
		cfg.Bias.Op = 2
		res, err := RunSparse(RunSpec{Config: cfg, Iterations: 1500, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(7)
	if serial.Groups != parallel.Groups || serial.TotalDDFs != parallel.TotalDDFs {
		t.Fatalf("totals differ: serial %d/%d, parallel %d/%d",
			serial.Groups, serial.TotalDDFs, parallel.Groups, parallel.TotalDDFs)
	}
	if !reflect.DeepEqual(serial.Events, parallel.Events) {
		t.Error("biased events (incl. weights) differ across worker counts")
	}
	if !serial.Weighted() {
		t.Error("biased run carries no weights")
	}
}

// weightedPhat is the likelihood-ratio estimate of the per-group DDF
// probability: mean of exp(logW) over event groups with implied zeros.
func weightedPhat(res *SparseResult) float64 {
	sum := 0.0
	for _, w := range res.GroupWeights() {
		sum += w
	}
	return sum / float64(res.Groups)
}

// The tentpole's correctness core at the engine level: the importance-
// sampled estimator must agree with plain Monte Carlo, and both engines
// must agree with each other under bias, despite their different censoring
// horizons producing different per-iteration weights.
func TestBiasedEstimatorAgreesWithPlain(t *testing.T) {
	cfg := rareConfig()
	const n = 30000

	plain, err := RunSparse(RunSpec{Config: cfg, Iterations: n, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pPlain := float64(plain.GroupsWithDDF()) / float64(plain.Groups)
	if plain.GroupsWithDDF() < 20 {
		t.Fatalf("reference run too sparse (%d event groups); raise n", plain.GroupsWithDDF())
	}

	biased := cfg
	biased.Bias.Op = 4
	for _, tc := range []struct {
		name   string
		engine Engine
	}{
		{"event engine", EventEngine{}},
		{"block engine", BlockEngine{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunSparse(RunSpec{Config: biased, Iterations: n / 3, Seed: 9, Engine: tc.engine})
			if err != nil {
				t.Fatal(err)
			}
			if res.GroupsWithDDF() <= plain.GroupsWithDDF()/3 {
				t.Errorf("bias ineffective: %d event groups in %d iters vs %d in %d unbiased",
					res.GroupsWithDDF(), res.Groups, plain.GroupsWithDDF(), plain.Groups)
			}
			pw := weightedPhat(res)
			// Both estimates carry Monte Carlo noise of a few percent at
			// these sizes; 25% relative disagreement would be > 5 SE.
			if rel := math.Abs(pw-pPlain) / pPlain; rel > 0.25 {
				t.Errorf("weighted estimate %v vs plain %v (relative gap %.2f)", pw, pPlain, rel)
			}
		})
	}
}

// Latent-defect biasing must flow the TTLd likelihood ratios through the
// estimator too: with a mild tilt the weighted estimate still matches the
// plain one.
func TestBiasedLatentDefectsAgreeWithPlain(t *testing.T) {
	cfg := rareConfig()
	cfg.Trans.TTLd = dist.MustExponential(5e-5)
	cfg.Trans.TTScrub = dist.MustExponential(1e-3)
	const n = 20000

	plain, err := RunSparse(RunSpec{Config: cfg, Iterations: n, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	pPlain := float64(plain.GroupsWithDDF()) / float64(plain.Groups)
	if plain.GroupsWithDDF() < 20 {
		t.Fatalf("reference run too sparse (%d event groups)", plain.GroupsWithDDF())
	}

	biased := cfg
	biased.Bias = Bias{Op: 2, Ld: 1.3}
	res, err := RunSparse(RunSpec{Config: biased, Iterations: n, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	pw := weightedPhat(res)
	if rel := math.Abs(pw-pPlain) / pPlain; rel > 0.3 {
		t.Errorf("weighted estimate %v vs plain %v (relative gap %.2f)", pw, pPlain, rel)
	}
}
