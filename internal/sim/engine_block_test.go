package sim

import (
	"math"
	"reflect"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// blockIdentityConfigs covers every draw path the block engine specializes:
// the paper's base case (general-β TTOp with the lazy gen-1 skip, lazy
// β = 3 scrub ends), exponential transitions with frequent events (heavy
// sweep/suppression/concomitant-repair traffic), latent defects without
// scrub, per-slot overrides, the NHPP defect process, and the θ-tilted
// variants with their censored-weight bookkeeping.
func blockIdentityConfigs() map[string]Config {
	fastLatent := fastConfig()
	fastLatent.Trans.TTLd = dist.MustExponential(1e-4)
	fastLatent.Trans.TTScrub = dist.MustExponential(1e-2)

	noScrub := fastConfig()
	noScrub.Trans.TTLd = dist.MustExponential(1e-4)

	mixed := paperBaseConfig()
	mixed.SlotTTOp = make([]dist.Distribution, mixed.Drives)
	mixed.SlotTTOp[0] = dist.MustWeibull(1.12, 200000, 0)
	mixed.SlotTTOp[3] = dist.MustExponential(1e-5)

	nhpp := fastConfig()
	nhpp.Trans.TTLdRate = func(t float64) float64 { return 1e-4 * (1 + 0.5*math.Sin(t/1000)) }
	nhpp.Trans.TTLdRateMax = 1.5e-4
	nhpp.Trans.TTScrub = dist.MustExponential(1e-2)

	biased := paperBaseConfig()
	biased.Bias.Op = 8

	biasedBoth := paperBaseConfig()
	biasedBoth.Bias.Op = 4
	biasedBoth.Bias.Ld = 3

	return map[string]Config{
		"paper base case": paperBaseConfig(),
		"fast latent":     fastLatent,
		"no scrub":        noScrub,
		"mixed vintage":   mixed,
		"nhpp":            nhpp,
		"biased op":       biased,
		"biased op+ld":    biasedBoth,
	}
}

// TestBlockEngineBitIdentity is the block engine's core contract: on the
// same RNG stream it must reproduce the interval engine's output exactly —
// every DDF time and cause and the log weight, bit for bit — across a seed
// grid, for both plain and θ-tilted sampling. This is what lets campaigns
// switch engines (or resume a scalar checkpoint under the block engine)
// without perturbing a single result.
func TestBlockEngineBitIdentity(t *testing.T) {
	for name, cfg := range blockIdentityConfigs() {
		t.Run(name, func(t *testing.T) {
			var ra, rb rng.RNG
			var bufA, bufB []DDF
			events := 0
			for stream := uint64(0); stream < 2000; stream++ {
				ra.SeedStream(42, stream)
				rb.SeedStream(42, stream)
				var lwA, lwB float64
				var err error
				bufA, lwA, err = IntervalEngine{}.SimulateInto(cfg, &ra, bufA[:0])
				if err != nil {
					t.Fatal(err)
				}
				bufB, lwB, err = BlockEngine{}.SimulateInto(cfg, &rb, bufB[:0])
				if err != nil {
					t.Fatal(err)
				}
				if len(bufA) != len(bufB) {
					t.Fatalf("stream %d: interval %d events, block %d events", stream, len(bufA), len(bufB))
				}
				for i := range bufA {
					if math.Float64bits(bufA[i].Time) != math.Float64bits(bufB[i].Time) || bufA[i].Cause != bufB[i].Cause {
						t.Fatalf("stream %d event %d: interval %+v, block %+v", stream, i, bufA[i], bufB[i])
					}
				}
				if math.Float64bits(lwA) != math.Float64bits(lwB) {
					t.Fatalf("stream %d: interval logW %v, block logW %v", stream, lwA, lwB)
				}
				events += len(bufA)
			}
			if events == 0 && name != "paper base case" && name != "biased op" && name != "biased op+ld" && name != "mixed vintage" {
				t.Errorf("no events in 2000 streams; identity test is vacuous")
			}
		})
	}
}

// TestBlockRunnerMatchesScalar: the runner's block-engine step must
// observe exactly the interval engine's stream — same groups, same events,
// same weights — at any unit size (VR.BlockSize without VR sets only the
// unit size; 7 leaves a clipped last unit).
func TestBlockRunnerMatchesScalar(t *testing.T) {
	for name, cfg := range blockIdentityConfigs() {
		t.Run(name, func(t *testing.T) {
			want, err := RunSparse(RunSpec{Config: cfg, Iterations: 500, Seed: 99, Engine: IntervalEngine{}, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, block := range []int{0, 64, 7} {
				c := cfg
				c.VR.BlockSize = block
				got, err := RunSparse(RunSpec{Config: c, Iterations: 500, Seed: 99, Engine: BlockEngine{}, Workers: 3})
				if err != nil {
					t.Fatal(err)
				}
				if got.Groups != want.Groups || !reflect.DeepEqual(got.Events, want.Events) {
					t.Fatalf("BlockSize:%d: block-engine events differ from the interval engine's", block)
				}
				if got.VR != nil {
					t.Fatal("VR tallies attached to a VR-disabled run")
				}
			}
		})
	}
}

// TestBlockEngineRejections: configurations outside the block engine's
// compiled-kernel domain must be refused, not silently mis-simulated.
func TestBlockEngineRejections(t *testing.T) {
	spares := fastConfig()
	one := 1
	spares.Spares = &SparePolicy{Initial: one}
	var r rng.RNG
	r.SeedStream(1, 0)
	if _, _, err := (BlockEngine{}).SimulateInto(spares, &r, nil); err == nil {
		t.Error("finite spare pool accepted")
	}

	generic := fastConfig()
	generic.Trans.TTR = newScripted(5)
	r.SeedStream(1, 0)
	if _, _, err := (BlockEngine{}).SimulateInto(generic, &r, nil); err == nil {
		t.Error("generic (scripted) kernel accepted")
	}

	vrScalar := fastConfig()
	vrScalar.VR.Antithetic = true
	if _, err := RunSparse(RunSpec{Config: vrScalar, Iterations: 10, Seed: 1, Engine: IntervalEngine{}}); err == nil {
		t.Error("VR run through a scalar engine accepted")
	}
}

// TestVRStreamMapping pins the global-index → (stream, antithetic,
// stratum) maps the worker-invariance and resume guarantees rest on.
func TestVRStreamMapping(t *testing.T) {
	v := VR{Antithetic: true, Stratify: true, BlockSize: 8}
	for g, want := range []struct {
		stream uint64
		anti   bool
		j, k   int
	}{
		{0, false, 0, 4}, {0, true, 0, 4},
		{1, false, 1, 4}, {1, true, 1, 4},
		{2, false, 2, 4}, {2, true, 2, 4},
		{3, false, 3, 4}, {3, true, 3, 4},
		{4, false, 0, 4}, {4, true, 0, 4},
	} {
		stream, anti := v.stream(g)
		j, k := v.stratum(g)
		if stream != want.stream || anti != want.anti || j != want.j || k != want.k {
			t.Fatalf("g=%d: got (%d,%v,%d,%d), want %+v", g, stream, anti, j, k, want)
		}
	}
	plain := VR{}
	if s, a := plain.stream(7); s != 7 || a {
		t.Fatal("plain stream map must be the identity")
	}
	if j, k := plain.stratum(7); j != 0 || k != 0 {
		t.Fatal("plain stratum map must be disabled")
	}
}

// TestAntitheticNegativeCorrelation is the statistical sanity check behind
// the antithetic scheme: complementing the uniform stream must
// anti-correlate the pair's DDF indicators, so the mean pair product sits
// below the squared mean — strictly, at a sample size where a positive or
// zero correlation would be a clear implementation bug.
func TestAntitheticNegativeCorrelation(t *testing.T) {
	// fastConfig's ~99% DDF probability leaves no variance to reduce; a
	// 3× longer MTBF puts the rate near 35%, where the pairing bites.
	cfg := fastConfig()
	cfg.Trans.TTOp = dist.MustExponential(1.0 / 30000)
	cfg.VR = VR{Antithetic: true, BlockSize: 64}
	run, err := RunSparse(RunSpec{Config: cfg, Iterations: 8192, Seed: 5, Engine: BlockEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	if run.VR == nil {
		t.Fatal("VR run produced no tallies")
	}
	var sumY, sumC float64
	var n, pairs int
	for _, b := range run.VR.Blocks {
		sumY += b.Y
		sumC += b.C
		n += b.N
		pairs += b.P
	}
	if n != 8192 || pairs != 4096 {
		t.Fatalf("tallies cover %d iterations / %d pairs, want 8192 / 4096", n, pairs)
	}
	mean := sumY / float64(n)
	pairMean := sumC / float64(pairs)
	if mean == 0 {
		t.Fatal("no events; correlation test is vacuous")
	}
	if cov := pairMean - mean*mean; cov >= 0 {
		t.Fatalf("antithetic pair covariance %v is not negative (mean %v, pair mean %v)", cov, mean, pairMean)
	}
}

// TestStratifiedMeanUnbiased: stratifying the first draw must leave the
// estimator's expectation unchanged — compare a stratified run's event
// rate against the plain rate at a tolerance a few standard errors wide.
func TestStratifiedMeanUnbiased(t *testing.T) {
	cfg := fastConfig()
	const iters = 16384
	plain, err := RunSparse(RunSpec{Config: cfg, Iterations: iters, Seed: 11, Engine: BlockEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.VR = VR{Stratify: true, BlockSize: 128}
	strat, err := RunSparse(RunSpec{Config: cfg, Iterations: iters, Seed: 12, Engine: BlockEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	p := float64(plain.GroupsWithDDF()) / iters
	q := float64(strat.GroupsWithDDF()) / iters
	se := math.Sqrt(2 * p * (1 - p) / iters)
	if diff := math.Abs(p - q); diff > 6*se {
		t.Fatalf("stratified rate %v vs plain %v differs by %v (> 6 s.e. %v)", q, p, diff, 6*se)
	}
}
