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
// scrub, per-slot overrides, the θ-tilted
// variants with their censored-weight bookkeeping, and defect processes
// on either side of the Poisson arrival layout's domain.
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

	biased := paperBaseConfig()
	biased.Bias.Op = 8

	biasedBoth := paperBaseConfig()
	biasedBoth.Bias.Op = 4
	biasedBoth.Bias.Ld = 3

	// Defect processes at the edges of the Poisson layout: a rate whose
	// generation windows hold ~876 expected arrivals, a wear-out (β = 1.5)
	// renewal process, and a β = 1 process shifted by a location, which
	// is a renewal process but not a Poisson one.
	denseLd := paperBaseConfig()
	denseLd.Trans.TTLd = dist.MustExponential(1e-2)
	wearLd := paperBaseConfig()
	wearLd.Trans.TTLd = dist.MustWeibull(1.5, 9259, 0)
	shiftedLd := paperBaseConfig()
	shiftedLd.Trans.TTLd = dist.MustWeibull(1, 9259, 50)

	return map[string]Config{
		"paper base case":  paperBaseConfig(),
		"fast latent":      fastLatent,
		"no scrub":         noScrub,
		"mixed vintage":    mixed,
		"biased op":        biased,
		"biased op+ld":     biasedBoth,
		"rare bias θ=8":    rareBiasConfig(8),
		"rare bias θ=0.5":  rareBiasConfig(0.5),
		"dense defects":    denseLd,
		"wear-out defects": wearLd,
		"shifted defects":  shiftedLd,
	}
}

// rareBiasConfig is the exponential rare-event configuration (8 drives,
// R=1, one-year mission, MTBF 500,000 h, MTTR 100 h) with its TTOp hazard
// tilted by theta: nearly every operational draw is censored past the
// mission, so the uniform-domain censor cut decides most draws.
func rareBiasConfig(theta float64) Config {
	return Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    8760,
		Trans: Transitions{
			TTOp: dist.MustExponential(2e-6),
			TTR:  dist.MustExponential(1e-2),
		},
		Bias: Bias{Op: theta},
	}
}

// TestBlockEngineCensorCutVRIdentity covers the draws the plain direct
// path never takes: under antithetic pairing and a stratified first draw,
// every iteration of the θ=8 rare-event configuration must give the same
// DDFs, log weight and control observation with the uniform-domain censor
// cut armed as with every draw taking the full log path.
func TestBlockEngineCensorCutVRIdentity(t *testing.T) {
	cfg := rareBiasConfig(8)
	cfg.VR = VR{Antithetic: true, Stratify: true, BlockSize: 64}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var cut, full blockScratch
	cut.prep(&cfg)
	full.prep(&cfg)
	clear(full.ucut)
	var r rng.RNG
	var bufA, bufB []DDF
	events := 0
	for g := 0; g < 20000; g++ {
		stream, anti := cfg.VR.stream(g)
		j, k := cfg.VR.stratum(g)
		r.SeedStream(42, stream)
		r.SetAntithetic(anti)
		cut.col.reset(&r, j, k)
		var lwA, zA, lwB, zB float64
		bufA, lwA, zA = cut.simulateGroup(&cfg, bufA[:0])
		r.SeedStream(42, stream)
		r.SetAntithetic(anti)
		full.col.reset(&r, j, k)
		bufB, lwB, zB = full.simulateGroup(&cfg, bufB[:0])
		if !reflect.DeepEqual(bufA, bufB) || math.Float64bits(lwA) != math.Float64bits(lwB) || zA != zB {
			t.Fatalf("iteration %d: cut (%v, %v, %v) vs full log path (%v, %v, %v)", g, bufA, lwA, zA, bufB, lwB, zB)
		}
		events += len(bufA)
	}
	if events == 0 {
		t.Fatal("no events in 20000 iterations; identity test is vacuous")
	}
}

// TestDrawTTOpCensorCutBoundary feeds drawTTOp column uniforms two grid
// steps either side of each slot's censor cut, for a first generation and
// a later one, biased and unbiased, and checks them against the exact
// transform of the same uniform (FromExp, or DrawLRFromExp under bias).
// Below the cut the draw must be +Inf, the exact transform must land past
// the residual mission, and the log ratio must be the exact one bit for
// bit; at or above it the draw must be the exact transform itself.
func TestDrawTTOpCensorCutBoundary(t *testing.T) {
	for _, theta := range []float64{8, 0.5, 0} {
		cfg := rareBiasConfig(theta)
		var sc blockScratch
		sc.prep(&cfg)
		for slot, ucut := range sc.ucut {
			if !(ucut > 0.5 && ucut < 1) {
				t.Fatalf("θ=%v slot %d: cut %v outside the expected (0.5, 1)", theta, slot, ucut)
			}
			x0 := uint64(ucut * (1 << 53)) // largest grid uniform <= ucut
			for x := x0 - 2; x <= x0+2; x++ {
				u := float64(x) / (1 << 53)
				for _, upFrom := range []float64{0, 1234.5} {
					sc.col.u[0] = u
					sc.col.pos, sc.col.strataK = 0, 0
					dt, lr := sc.drawTTOp(&cfg, slot, upFrom)
					m := cfg.Mission - upFrom
					var wantDt, wantLr float64
					if sc.kern.biasOp {
						wantDt, wantLr = sc.kern.ttopTilt[slot].DrawLRFromExp(-math.Log(u), m)
					} else {
						wantDt = sc.kern.ttop[slot].FromExp(-math.Log(u))
					}
					if u < ucut {
						if !math.IsInf(dt, 1) || !(wantDt > m) || math.Float64bits(lr) != math.Float64bits(wantLr) {
							t.Fatalf("θ=%v slot %d u=%v below the cut %v: shortcut (%v, %v), exact (%v, %v) against residual mission %v",
								theta, slot, u, ucut, dt, lr, wantDt, wantLr, m)
						}
						continue
					}
					if math.Float64bits(dt) != math.Float64bits(wantDt) || math.Float64bits(lr) != math.Float64bits(wantLr) {
						t.Fatalf("θ=%v slot %d u=%v (cut %v): drew (%v, %v), exact (%v, %v)",
							theta, slot, u, ucut, dt, lr, wantDt, wantLr)
					}
				}
			}
		}
	}
}

// TestBlockRunnerMatchesScalar: the runner's block-engine step must
// observe exactly the stream of its scalar step over the same engine (one
// BlockEngine.SimulateInto per iteration, reached by hiding the engine's
// type behind a wrapper) — same groups, same events, same weights — at any
// unit size (VR.BlockSize without VR sets only the unit size; 7 leaves a
// clipped last unit).
func TestBlockRunnerMatchesScalar(t *testing.T) {
	scalar := struct{ Engine }{BlockEngine{}}
	for name, cfg := range blockIdentityConfigs() {
		t.Run(name, func(t *testing.T) {
			want, err := RunSparse(RunSpec{Config: cfg, Iterations: 500, Seed: 99, Engine: scalar, Workers: 2})
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
					t.Fatalf("BlockSize:%d: block step's events differ from the scalar step's", block)
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
	if _, err := RunSparse(RunSpec{Config: vrScalar, Iterations: 10, Seed: 1, Engine: EventEngine{}}); err == nil {
		t.Error("VR run through the event engine accepted")
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

// TestDrawColDropsZeroUniforms pins the column's zero handling, which a
// seeded stream reaches with probability 2^-53 per draw: a chunk holding
// zero uniforms must yield its nonzero entries in order and then the
// generator's next nonzero uniforms, exactly what rng.Float64Open returns
// from the same state — for an iteration's short first chunk and for a
// full one.
func TestDrawColDropsZeroUniforms(t *testing.T) {
	for _, full := range []bool{false, true} {
		for _, zeros := range [][]int{{0}, {5, 6}, {15}, {0, 1, 2, 14, 15}} {
			var r rng.RNG
			r.SeedStream(9, uint64(len(zeros)))
			var c drawCol
			c.reset(&r, 0, 0)
			c.refill()
			if full {
				c.pos = colChunk
				c.refill()
			}
			for _, i := range zeros {
				c.u[c.pos+i] = 0
			}
			var want []float64
			for _, u := range c.u[c.pos:] {
				if u > 0 {
					want = append(want, u)
				}
			}
			ref := r
			for len(want) < 2*colChunk {
				want = append(want, ref.Float64Open())
			}
			c.dropZeros()
			for i, w := range want {
				if got := c.nextUniform(); got != w {
					t.Fatalf("full chunk %v, zeros at %v: draw %d is %v, want %v", full, zeros, i, got, w)
				}
			}
		}
	}
}
