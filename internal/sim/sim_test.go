package sim

import (
	"math"
	"reflect"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/markov"
	"raidrel/internal/rng"
)

// Heavier-than-paper rates make DDFs frequent enough to validate counts
// cheaply in tests.
func fastConfig() Config {
	return Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    87600,
		Trans: Transitions{
			TTOp: dist.MustExponential(1e-4), // MTBF 10,000 h
			TTR:  dist.MustExponential(1e-2), // MTTR 100 h
		},
	}
}

// simulate runs one chronology on a fresh buffer, dropping the log weight.
func simulate(e Engine, cfg Config, r *rng.RNG) ([]DDF, error) {
	ddfs, _, err := e.SimulateInto(cfg, r, nil)
	return ddfs, err
}

func TestConfigValidate(t *testing.T) {
	good := fastConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too few drives", func(c *Config) { c.Drives = 1 }},
		{"zero redundancy", func(c *Config) { c.Redundancy = 0 }},
		{"redundancy >= drives", func(c *Config) { c.Redundancy = 8 }},
		{"zero mission", func(c *Config) { c.Mission = 0 }},
		{"infinite mission", func(c *Config) { c.Mission = math.Inf(1) }},
		{"nil TTOp", func(c *Config) { c.Trans.TTOp = nil }},
		{"nil TTR", func(c *Config) { c.Trans.TTR = nil }},
		{"scrub without latent", func(c *Config) {
			c.Trans.TTScrub = dist.MustExponential(1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := fastConfig()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestCauseString(t *testing.T) {
	if CauseOpOp.String() != "op+op" || CauseLdOp.String() != "ld+op" {
		t.Error("cause strings wrong")
	}
	if Cause(99).String() != "cause(99)" {
		t.Error("unknown cause string wrong")
	}
}

// With constant rates and no latent defects, the probability that a group's
// FIRST DDF occurs by time t must match the 3-state Markov chain's
// absorption probability — the one regime where the MTTDL worldview is
// exact.
func TestEventEngineMatchesMarkovAbsorption(t *testing.T) {
	cfg := fastConfig()
	cfg.Mission = 20000
	chain, err := markov.NewRAIDChain(7, 1e-4, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := chain.AbsorptionProbability(markov.RAIDAllGood, cfg.Mission)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 6000
	firstDDF := 0
	for i := 0; i < iters; i++ {
		ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(7, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(ddfs) > 0 {
			firstDDF++
		}
	}
	gotP := float64(firstDDF) / iters
	// Monte Carlo SE ~ sqrt(p(1-p)/n) ~ 0.006; allow 4 SE.
	if math.Abs(gotP-wantP) > 0.025 {
		t.Errorf("P(DDF by %v) = %v, Markov says %v", cfg.Mission, gotP, wantP)
	}
}

// With exponential distributions everywhere, the probability that a
// group's FIRST data loss happens by time t should track the Fig. 4
// constant-rate Markov chain's absorption probability. The chain ignores
// defect multiplicity and post-restore defect carryover, so rates are
// chosen to keep those second-order effects small and the tolerance
// allows for the residual bias.
func TestLatentChainMatchesMarkovAbsorption(t *testing.T) {
	const (
		lambdaOp = 1e-4
		lambdaLd = 5e-5
		muRest   = 1e-2
		muScrub  = 5e-3
		horizon  = 20000.0
	)
	chain, err := markov.NewFigureFourChain(markov.FigureFourRates{
		N: 7, LambdaOp: lambdaOp, LambdaLd: lambdaLd,
		MuRestore: muRest, MuScrub: muScrub,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := chain.AbsorptionProbability(markov.LDFullyFunctional, horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    horizon,
		Trans: Transitions{
			TTOp:    dist.MustExponential(lambdaOp),
			TTR:     dist.MustExponential(muRest),
			TTLd:    dist.MustExponential(lambdaLd),
			TTScrub: dist.MustExponential(muScrub),
		},
	}
	const iters = 8000
	hit := 0
	for i := 0; i < iters; i++ {
		ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(314, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(ddfs) > 0 {
			hit++
		}
	}
	gotP := float64(hit) / iters
	if math.Abs(gotP-wantP) > 0.05 {
		t.Errorf("P(first loss by %v) = %v, Fig.4 chain says %v", horizon, gotP, wantP)
	}
}

// Redundancy-2 simulation with constant rates must track the double-
// parity Markov chain's absorption probability (sequential repair is the
// approximation: the simulator repairs drives concurrently, so it should
// be at least as reliable as the chain, within tolerance).
func TestRedundancy2MatchesDoubleParityChain(t *testing.T) {
	const (
		lambda  = 5e-4 // hot rates so triple overlaps occur
		mu      = 5e-3
		horizon = 40000.0
	)
	chain, err := markov.NewDoubleParityChain(8, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := chain.AbsorptionProbability(markov.DPAllGood, horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Drives:     8,
		Redundancy: 2,
		Mission:    horizon,
		Trans: Transitions{
			TTOp: dist.MustExponential(lambda),
			TTR:  dist.MustExponential(mu),
		},
	}
	const iters = 6000
	hit := 0
	for i := 0; i < iters; i++ {
		ddfs, err := simulate(EventEngine{}, cfg, rng.ForStream(777, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(ddfs) > 0 {
			hit++
		}
	}
	gotP := float64(hit) / iters
	// The simulator's concurrent repairs make it slightly MORE reliable
	// than the single-crew chain; allow that direction generously and the
	// other tightly.
	if gotP > wantP+0.03 || gotP < wantP-0.15 {
		t.Errorf("P(triple loss by %v) = %v, chain says %v", horizon, gotP, wantP)
	}
}

// The block engine must agree with the event engine statistically.
func TestEnginesCrossValidate(t *testing.T) {
	cfg := fastConfig()
	cfg.Trans.TTLd = dist.MustExponential(5e-4)
	cfg.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	cfg.Mission = 30000

	const iters = 4000
	count := func(e Engine, seed uint64) (total, opop, ldop int) {
		for i := 0; i < iters; i++ {
			ddfs, err := simulate(e, cfg, rng.ForStream(seed, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += len(ddfs)
			for _, d := range ddfs {
				if d.Cause == CauseOpOp {
					opop++
				} else {
					ldop++
				}
			}
		}
		return total, opop, ldop
	}
	evTotal, evOpOp, evLdOp := count(EventEngine{}, 11)
	blTotal, blOpOp, blLdOp := count(BlockEngine{}, 12)
	if evTotal == 0 || blTotal == 0 {
		t.Fatal("no DDFs generated; config too mild for the test")
	}
	rel := func(a, b int) float64 {
		return math.Abs(float64(a)-float64(b)) / math.Max(float64(a), float64(b))
	}
	if rel(evTotal, blTotal) > 0.08 {
		t.Errorf("total DDFs disagree: event=%d block=%d", evTotal, blTotal)
	}
	if rel(evLdOp, blLdOp) > 0.10 {
		t.Errorf("LdOp DDFs disagree: event=%d block=%d", evLdOp, blLdOp)
	}
	if rel(evOpOp+1, blOpOp+1) > 0.25 {
		t.Errorf("OpOp DDFs disagree: event=%d block=%d", evOpOp, blOpOp)
	}
}

// Without latent defects every DDF must be OpOp.
func TestNoLatentMeansNoLdOp(t *testing.T) {
	cfg := fastConfig()
	res, err := RunSparse(RunSpec{Config: cfg, Iterations: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDDFs == 0 {
		t.Fatal("expected some DDFs")
	}
	if res.LdOpDDFs != 0 {
		t.Errorf("latent defects disabled but %d LdOp DDFs", res.LdOpDDFs)
	}
	if res.OpOpDDFs != res.TotalDDFs {
		t.Errorf("cause accounting broken: %d op+op of %d total", res.OpOpDDFs, res.TotalDDFs)
	}
}

// With a very high defect rate and no scrubbing, essentially every
// operational failure beyond the earliest hours lands on a group with an
// outstanding defect: DDFs (almost all LdOp) approach the op-failure count.
func TestUnscrubbedDefectsDominate(t *testing.T) {
	cfg := fastConfig()
	cfg.Trans.TTLd = dist.MustExponential(1e-3) // defect every 1,000 h per drive
	res, err := RunSparse(RunSpec{Config: cfg, Iterations: 1500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Expected op failures per group ~ 8 × λ × mission corrected for
	// downtime; just require DDFs to be a large fraction of that scale.
	expOpFailures := 8 * 1e-4 * 87600.0
	perGroup := float64(res.TotalDDFs) / 1500
	if perGroup < 0.5*expOpFailures {
		t.Errorf("per-group DDFs %v; expected near op-failure count %v", perGroup, expOpFailures)
	}
	if res.LdOpDDFs < res.OpOpDDFs*5 {
		t.Errorf("expected LdOp to dominate: ld=%d op=%d", res.LdOpDDFs, res.OpOpDDFs)
	}
}

// Scrubbing must reduce DDFs monotonically as it gets faster (Fig. 9).
func TestScrubMonotonicity(t *testing.T) {
	base := fastConfig()
	base.Trans.TTLd = dist.MustExponential(1e-3)
	counts := make([]int, 0, 3)
	for _, scrub := range []dist.Distribution{
		nil,
		dist.MustWeibull(3, 336, 6),
		dist.MustWeibull(3, 12, 1),
	} {
		cfg := base
		cfg.Trans.TTScrub = scrub
		res, err := RunSparse(RunSpec{Config: cfg, Iterations: 1200, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.TotalDDFs)
	}
	if !(counts[0] > counts[1] && counts[1] > counts[2]) {
		t.Errorf("DDFs not decreasing with faster scrub: %v", counts)
	}
}

// An operational failure followed by a latent defect is not a DDF: with
// defects so rare they effectively never precede a failure, LdOp counts
// must be (near) zero even though defects do occur during rebuilds.
func TestLdAfterOpIsNotDDF(t *testing.T) {
	cfg := fastConfig()
	cfg.Trans.TTLd = dist.MustExponential(1e-9) // ~0.0007 defects per mission
	res, err := RunSparse(RunSpec{Config: cfg, Iterations: 2000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.LdOpDDFs > 2 {
		t.Errorf("defects are vanishingly rare yet %d LdOp DDFs", res.LdOpDDFs)
	}
}

// RAID 6 (redundancy 2) must suffer orders of magnitude fewer data losses
// than RAID 5 under identical stress — the paper's closing argument.
func TestRaid6Extension(t *testing.T) {
	cfg5 := fastConfig()
	cfg5.Trans.TTLd = dist.MustExponential(5e-4)
	cfg5.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	cfg6 := cfg5
	cfg6.Redundancy = 2

	res5, err := RunSparse(RunSpec{Config: cfg5, Iterations: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res6, err := RunSparse(RunSpec{Config: cfg6, Iterations: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res5.TotalDDFs < 100 {
		t.Fatalf("RAID5 config too mild: %d DDFs", res5.TotalDDFs)
	}
	// Under this deliberately heavy stress RAID 6's residual losses are
	// dominated by the double-failure-plus-defect path; an order of
	// magnitude improvement is the expected shape.
	if float64(res6.TotalDDFs) > float64(res5.TotalDDFs)/8 {
		t.Errorf("RAID6 losses %d not << RAID5 losses %d", res6.TotalDDFs, res5.TotalDDFs)
	}
}

// Once a DDF occurs another cannot occur until the first restores: DDF
// times within a group must be separated by at least the triggering
// failure's restore time (which is >= the TTR location when TTR has one).
func TestDDFSuppressionSpacing(t *testing.T) {
	cfg := fastConfig()
	cfg.Trans.TTR = dist.MustWeibull(2, 12, 6) // minimum restore 6 h
	cfg.Trans.TTLd = dist.MustExponential(2e-3)
	res, err := RunSparse(RunSpec{Config: cfg, Iterations: 800, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for i := 1; i < len(res.Events); i++ {
		prev, e := res.Events[i-1], res.Events[i]
		if e.Group != prev.Group {
			continue
		}
		pairs++
		if e.Time-prev.Time < 6 {
			t.Fatalf("DDFs %v apart; restore floor is 6 h", e.Time-prev.Time)
		}
	}
	if pairs == 0 {
		t.Fatal("no multi-DDF groups; config too mild for the test")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := fastConfig()
	cfg.Trans.TTLd = dist.MustExponential(5e-4)
	cfg.Trans.TTScrub = dist.MustWeibull(3, 48, 6)
	cfg.Mission = 20000
	run := func(workers int) *SparseResult {
		res, err := RunSparse(RunSpec{Config: cfg, Iterations: 500, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(7)
	if a.TotalDDFs != b.TotalDDFs || a.LdOpDDFs != b.LdOpDDFs {
		t.Fatalf("worker count changed results: %d/%d vs %d/%d",
			a.TotalDDFs, a.LdOpDDFs, b.TotalDDFs, b.LdOpDDFs)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("events differ across worker counts")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := RunSparse(RunSpec{Config: Config{}, Iterations: 1}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := RunSparse(RunSpec{Config: fastConfig(), Iterations: 0}); err == nil {
		t.Error("zero iterations accepted")
	}
}

// DDF times must lie within the mission and be sorted per group.
func TestChronologyInvariants(t *testing.T) {
	cfg := fastConfig()
	cfg.Trans.TTLd = dist.MustExponential(1e-3)
	cfg.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	for _, engine := range []Engine{EventEngine{}, BlockEngine{}} {
		for i := 0; i < 500; i++ {
			ddfs, err := simulate(engine, cfg, rng.ForStream(10, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			prev := 0.0
			for _, d := range ddfs {
				if d.Time < prev {
					t.Fatalf("%T: unsorted DDFs", engine)
				}
				if d.Time < 0 || d.Time > cfg.Mission {
					t.Fatalf("%T: DDF at %v outside mission", engine, d.Time)
				}
				if d.Cause != CauseOpOp && d.Cause != CauseLdOp {
					t.Fatalf("%T: invalid cause %v", engine, d.Cause)
				}
				prev = d.Time
			}
		}
	}
}

// With two drives and redundancy 1, a DDF requires overlapping episodes;
// with astronomically long MTBF no DDFs should ever occur.
func TestQuiescentGroupHasNoDDFs(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    87600,
		Trans: Transitions{
			TTOp: dist.MustExponential(1e-12),
			TTR:  dist.MustExponential(1),
		},
	}
	res, err := RunSparse(RunSpec{Config: cfg, Iterations: 500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDDFs != 0 {
		t.Errorf("%d DDFs from a quiescent group", res.TotalDDFs)
	}
}
