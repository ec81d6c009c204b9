package sim

import (
	"fmt"
	"math"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// chainLayout is what one defect-chain layout leaves behind: every start
// (read through startAt, materializing lazy arrivals), the column as the
// layout left it, and whether the layout stored a pending arrival or
// settled one by the exact sum.
type chainLayout struct {
	starts  []float64
	col     drawCol
	rng     rng.RNG
	pending bool
	settled bool
}

// layChain lays the chain of [genStart, windowEnd) on copies of col and r,
// lazily when lazy is set (the scratch must have chosen the lazy layout in
// prep) and eagerly otherwise.
func layChain(sc *blockScratch, col drawCol, r rng.RNG, lazy bool, genStart, windowEnd float64) chainLayout {
	rate := sc.ldRate
	if !lazy {
		sc.ldRate = 0
	}
	sc.col = col
	sc.col.r = &r
	var ch blockChronology
	sc.appendDefects(&ch, genStart, windowEnd, windowEnd)
	sc.ldRate = rate
	out := chainLayout{col: sc.col, rng: r}
	out.col.r = nil
	for i := range ch.defects {
		if ch.defects[i].pending != materialized {
			out.pending = true
		} else if lazy {
			out.settled = true
		}
	}
	for i := range ch.defects {
		out.starts = append(out.starts, sc.startAt(ch.defects, i))
	}
	return out
}

// compareLayouts fails t unless the lazy and eager layouts of one chain
// agree on the defect count, every start bit for bit, and the column
// entries consumed.
func compareLayouts(t *testing.T, what string, lazy, eager chainLayout) {
	t.Helper()
	if len(lazy.starts) != len(eager.starts) {
		t.Fatalf("%s: lazy layout has %d defects, eager %d", what, len(lazy.starts), len(eager.starts))
	}
	for i := range lazy.starts {
		if math.Float64bits(lazy.starts[i]) != math.Float64bits(eager.starts[i]) {
			t.Fatalf("%s: defect %d starts at %v lazily, %v eagerly", what, i, lazy.starts[i], eager.starts[i])
		}
	}
	if lazy.col.pos != eager.col.pos || lazy.rng != eager.rng {
		t.Fatalf("%s: lazy layout left the column at %d, eager at %d (generators equal: %v)",
			what, lazy.col.pos, eager.col.pos, lazy.rng == eager.rng)
	}
}

// TestBlockDefectChainBand feeds the layout hand-built column sequences
// whose exact sequential arrival sum lands on windowEnd and within ±4
// ulps of it — the chain end's hardest cases, which the product domain
// cannot decide — and requires the lazy and eager layouts to agree on
// the defect count, every start, and the column entries consumed. Every
// such case must fall inside the guard band and settle by the exact sum.
func TestBlockDefectChainBand(t *testing.T) {
	for _, ttld := range []dist.Distribution{
		dist.MustWeibull(1, 9259, 0), // the paper's Table 1 process
		dist.MustExponential(5e-3),
	} {
		cfg := paperBaseConfig()
		cfg.Trans.TTLd = ttld
		sc := new(blockScratch)
		sc.prep(&cfg)
		if sc.ldRate == 0 {
			t.Fatalf("%v: prep chose the eager layout", ttld)
		}
		src := rng.New(7)
		cases, onEnd := 0, 0
		for trial := 0; trial < 300; trial++ {
			// A prefix of n-1 arrivals from genStart, then windowEnd a
			// random stretch past the last of them.
			n := 1 + trial%12
			genStart := 0.0
			if trial%3 != 0 {
				genStart = math.Floor(src.Float64()*40000*64) / 64
			}
			var col drawCol // pos 0: the hand-built entries come first
			tPrev := genStart
			k := 0
			for i := 1; i < n; i++ {
				x := 1<<52 + src.Uint64()>>12 // u ≥ 1/2: gaps under 0.7 means
				col.u[k], col.u[k+1] = x<<11, src.Uint64()
				k += 2
				tPrev = sc.ldStep(tPrev, float64(x)/(1<<53))
			}
			windowEnd := tPrev + sc.kern.ttld.FromExp(-math.Log(src.Float64Open()))
			if windowEnd > cfg.Mission {
				continue
			}
			for j := -4; j <= 4; j++ {
				target := windowEnd
				for step := 0; step < j; step++ {
					target = math.Nextafter(target, math.Inf(1))
				}
				for step := 0; step > j; step-- {
					target = math.Nextafter(target, math.Inf(-1))
				}
				// The final arrival's grid uniform whose exact step from
				// tPrev comes closest to target.
				x0 := int64(math.Exp(-(target-tPrev)*sc.ldRate) * (1 << 53))
				best, bestDist := int64(0), math.Inf(1)
				for x := x0 - 64; x <= x0+64; x++ {
					if x < 1 || x >= 1<<53 {
						continue
					}
					if d := math.Abs(sc.ldStep(tPrev, float64(x)/(1<<53)) - target); d < bestDist {
						best, bestDist = x, d
					}
				}
				if best == 0 {
					continue
				}
				if bestDist == 0 && j == 0 {
					onEnd++
				}
				c := col
				c.u[k] = uint64(best) << 11
				for i := k + 1; i < colChunk; i++ {
					c.u[i] = src.Uint64()
				}
				var r rng.RNG
				r.SeedStream(uint64(trial), uint64(j+4))
				lazy := layChain(sc, c, r, true, genStart, windowEnd)
				eager := layChain(sc, c, r, false, genStart, windowEnd)
				compareLayouts(t, fmt.Sprint(ttld), lazy, eager)
				// A band fallback leaves the chain materialized at layout;
				// it is observable once the chain holds a defect.
				if len(lazy.starts) > 0 && (!lazy.settled || lazy.pending) {
					t.Fatalf("%v: arrival %d at %d ulps of windowEnd %v decided outside the band", ttld, n, j, windowEnd)
				}
				cases++
			}
		}
		if cases < 2000 || onEnd < 100 {
			t.Fatalf("%v: only %d boundary cases (%d exactly on windowEnd); the test is too weak", ttld, cases, onEnd)
		}
	}
}

// FuzzBlockDefectChain lays random-stream defect chains lazily and
// eagerly over fuzzed windows and rates and requires the same defect
// count, every start bit for bit, and the same column entries consumed.
func FuzzBlockDefectChain(f *testing.F) {
	f.Add(uint64(1), 0.0, 87600.0, 1.0/9259)
	f.Add(uint64(2), 12345.5, 500.0, 1e-3)
	f.Add(uint64(3), 100.0, 80000.0, 8e-3)
	f.Add(uint64(4), 0.0, 0.0, 1e-4)
	f.Add(uint64(5), 3.25, 1e-9, 0.5)
	f.Fuzz(func(t *testing.T, seed uint64, genStart, window, rate float64) {
		const mission = 87600
		if !(rate >= 1e-6 && rate <= 1) || !(genStart >= 0 && genStart <= mission) || !(window >= 0) {
			t.Skip()
		}
		windowEnd := math.Min(genStart+window, mission)
		cfg := paperBaseConfig()
		cfg.Trans.TTLd = dist.MustExponential(rate)
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		var sc blockScratch
		sc.prep(&cfg)
		if sc.ldRate == 0 {
			t.Skip() // mission hazard past the band's budget: eager only
		}
		var r rng.RNG
		r.SeedStream(seed, 0)
		var col drawCol
		col.reset(&r, 0, 0)
		lazy := layChain(&sc, col, r, true, genStart, windowEnd)
		eager := layChain(&sc, col, r, false, genStart, windowEnd)
		compareLayouts(t, "fuzzed chain", lazy, eager)
	})
}

// TestScrubDeadCut pins the dead-by-construction scrub cut: for every
// compiled scrub kind, scrubDead must be at least the end offset of the
// largest exponential the column can produce, and defectLive must give
// the full-log verdict (the cut disarmed) on a grid of query times, scrub
// uniforms and starts that includes t - scrubDead and t - FromExp(e_max)
// a few ulps either side.
func TestScrubDeadCut(t *testing.T) {
	eMax := -math.Log(0x1p-53)
	for _, scrub := range []dist.Distribution{
		dist.MustExponential(1e-2),
		dist.MustWeibull(1, 168, 6),
		dist.MustWeibull(2, 168, 6),
		dist.MustWeibull(3, 168, 6),
		dist.MustWeibull(1.7, 168, 6), // general-β Pow kernel
		dist.MustWeibull(0.6, 40, 0),
	} {
		cfg := paperBaseConfig()
		cfg.Trans.TTScrub = scrub
		var sc blockScratch
		sc.prep(&cfg)
		dead := sc.scrubDead
		if floor := sc.kern.scrub.FromExp(eMax); !(dead >= floor) {
			t.Fatalf("%v: scrubDead %v below FromExp(-log 2^-53) = %v", scrub, dead, floor)
		}
		cut := 0
		for _, tq := range []float64{900, 5000.125, 87599.75} {
			for _, x := range []uint64{1, 2, 3, 1 << 20, 1 << 52, 1<<53 - 1} {
				u := float64(x) / (1 << 53)
				var starts []float64
				for _, off := range []float64{dead, sc.kern.scrub.FromExp(eMax), sc.kern.scrub.FromExp(-math.Log(u)), dead / 2} {
					s := tq - off
					for i := 0; i < 4; i++ {
						s = math.Nextafter(s, math.Inf(-1))
					}
					for i := 0; i < 9; i++ {
						starts = append(starts, s)
						s = math.Nextafter(s, math.Inf(1))
					}
				}
				for _, start := range starts {
					if start < 0 {
						continue
					}
					sc.scrubDead = dead
					d := blockDefect{start: start, cap: math.Inf(1), ue: u}
					got := sc.defectLive(&d, tq)
					sc.scrubDead = math.Inf(1)
					full := blockDefect{start: start, cap: math.Inf(1), ue: u}
					want := sc.defectLive(&full, tq)
					if got != want {
						t.Fatalf("%v: start %v, u %v, t %v: cut verdict %v, full-log verdict %v", scrub, start, u, tq, got, want)
					}
					if tq >= start+dead {
						cut++
					}
				}
			}
		}
		if cut == 0 {
			t.Fatalf("%v: the grid never reached the cut", scrub)
		}
	}
}

// TestDefectLayoutChoice pins prep's layout choice on the paper's base
// case: lazy untilted and under a mild TTOp tilt, eager under the θ = 8
// tilt (5.7 expected first-generation failures per group, past the
// crossover) and for the renewal processes the lazy layout cannot
// represent.
func TestDefectLayoutChoice(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
		lazy  bool
	}{
		{"base", func(*Config) {}, true},
		{"θ=1.25", func(c *Config) { c.Bias.Op = 1.25 }, true},
		{"θ=8", func(c *Config) { c.Bias.Op = 8 }, false},
		{"Ld tilt", func(c *Config) { c.Bias.Ld = 3 }, false},
		{"β=1.5", func(c *Config) { c.Trans.TTLd = dist.MustWeibull(1.5, 9259, 0) }, false},
		{"shifted", func(c *Config) { c.Trans.TTLd = dist.MustWeibull(1, 9259, 50) }, false},
	} {
		cfg := paperBaseConfig()
		tc.tweak(&cfg)
		var sc blockScratch
		sc.prep(&cfg)
		if lazy := sc.ldRate > 0; lazy != tc.lazy {
			t.Errorf("%s: lazy layout %v, want %v", tc.name, lazy, tc.lazy)
		}
	}
}
