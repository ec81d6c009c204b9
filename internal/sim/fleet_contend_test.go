package sim

import (
	"math"
	"reflect"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/markov"
	"raidrel/internal/rng"
)

// Simultaneous failures at the spare shelf: each claims its own
// replenishment order in processing order, so ties neither lose nor
// double-count a replacement. Pinned because the head-index bookkeeping
// is easy to get off by one.
func TestSparePoolSimultaneousFailures(t *testing.T) {
	var pool sparePool
	pool.reset(&SparePolicy{Initial: 1, ReplenishHours: 100})
	// Three failures at the same instant t=10. The first takes the stocked
	// spare; the second and third wait for their own orders — which both
	// arrive at 110, so both rebuilds start then (not one at 110 and one
	// lost, and not both on the same order).
	if got := pool.rebuildStart(10); got != 10 {
		t.Fatalf("first tie start = %v, want 10", got)
	}
	if got := pool.rebuildStart(10); got != 110 {
		t.Fatalf("second tie start = %v, want 110", got)
	}
	if got := pool.rebuildStart(10); got != 110 {
		t.Fatalf("third tie start = %v, want 110", got)
	}
	// A fourth failure at 120: all three orders placed at 10 arrived at
	// 110; two were claimed above, one restocked at the t=120 sweep.
	if got := pool.rebuildStart(120); got != 120 {
		t.Fatalf("post-tie start = %v, want 120 (one order restocked)", got)
	}
	// And a fifth finds the shelf empty again, waiting on the order placed
	// at 120.
	if got := pool.rebuildStart(121); got != 220 {
		t.Fatalf("fifth start = %v, want 220", got)
	}
}

// The head-index ring must rewind once drained so pooled reuse keeps the
// backing array.
func TestSparePoolHeadRewind(t *testing.T) {
	var pool sparePool
	pool.reset(&SparePolicy{Initial: 0, ReplenishHours: 10})
	for i := 0; i < 100; i++ {
		tFail := float64(i * 1000)
		if got := pool.rebuildStart(tFail); got != tFail+10 {
			t.Fatalf("failure %d: start = %v, want %v", i, got, tFail+10)
		}
	}
	if len(pool.orders) > 2 || pool.head > 1 {
		t.Fatalf("drained pool did not rewind: len=%d head=%d", len(pool.orders), pool.head)
	}
	pool.reset(pool.policy)
	if pool.stock != 0 || len(pool.orders) != 0 || pool.head != 0 {
		t.Fatalf("reset pool dirty: %+v", pool)
	}
}

// Scripted contention: one fleet-wide repair slot, three groups. While
// group 2's long rebuild holds the slot, group 0 (one failure, oldest)
// and group 1 (two failures) queue up. The freed slot must go to the
// most-degraded group first — group 1's oldest failure jumps ahead of
// group 0's earlier one — and every wait, queue-depth and exposure
// statistic is pinned.
//
// Timeline: g2s0 fails at 50 (TTR 100, holds the slot until 150);
// g0s0 fails at 60 (queued), g1s0 at 70 (queued), g1s1 at 80 (queued,
// group 1 now doubly degraded — an OpOp DDF). Grants: g1s0 at 150
// (level 2 beats g0's older level-1 request), g0s0 at 155, g1s1 at 160.
func TestFleetScriptedPriorityOrder(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			// t=0 draws group by group, slot by slot:
			// g0s0=60, g0s1=∞, g1s0=70, g1s1=80, g2s0=50, g2s1=∞;
			// replacements after each restore never fail again.
			TTOp: newScripted(60, 5000, 70, 80, 50, 5000, 5000),
			// TTRs draw at failure instants in time order: 50, 60, 70, 80.
			TTR: newScripted(100, 5, 5, 5),
		},
	}
	groups, st := simulateFleetSeeded(t, cfg, FleetOptions{Groups: 3, MaxConcurrentRebuilds: 1}, 1, 0)

	if len(groups[1]) != 1 || groups[1][0].Time != 80 || groups[1][0].Cause != CauseOpOp {
		t.Errorf("group 1 DDFs = %v, want [{80 op+op}]", groups[1])
	}
	if len(groups[0]) != 0 || len(groups[2]) != 0 {
		t.Errorf("unexpected DDFs: g0=%v g2=%v", groups[0], groups[2])
	}

	if st.Failures != 4 || st.Rebuilds != 4 || st.ActiveAtEnd != 0 || st.QueuedAtEnd != 0 {
		t.Errorf("conservation: %+v", st)
	}
	// Grant order pins the waits: g1s0 waits 150-70=80, g0s0 waits
	// 155-60=95, g1s1 waits 160-80=80. FIFO would have given g0s0 the 150
	// grant (wait 90) — the extra 5 h is the degradation priority at work.
	wantGroupWait := []float64{95, 160, 0}
	for g, want := range wantGroupWait {
		if math.Abs(st.GroupWaitHours[g]-want) > 1e-9 {
			t.Errorf("group %d wait = %v, want %v", g, st.GroupWaitHours[g], want)
		}
	}
	if st.Waited != 3 {
		t.Errorf("Waited = %d, want 3", st.Waited)
	}
	if math.Abs(st.TotalWaitHours-255) > 1e-9 || math.Abs(st.MaxWaitHours-95) > 1e-9 {
		t.Errorf("waits = %v/%v, want 255/95", st.TotalWaitHours, st.MaxWaitHours)
	}
	if st.MaxQueueDepth != 3 {
		t.Errorf("MaxQueueDepth = %d, want 3", st.MaxQueueDepth)
	}
	// With every wait completed inside the mission, the queue-depth time
	// integral equals the summed waits (Little's identity, exact here).
	if math.Abs(st.MeanQueueDepth*cfg.Mission-st.TotalWaitHours) > 1e-9 {
		t.Errorf("depth integral %v != total wait %v", st.MeanQueueDepth*cfg.Mission, st.TotalWaitHours)
	}
	// Exposure windows: g0 degraded 60..160, g1 70..165, g2 50..150.
	if math.Abs(st.MaxExposureHours-100) > 1e-9 {
		t.Errorf("MaxExposureHours = %v, want 100", st.MaxExposureHours)
	}
}

// The backlog accounting must conserve failures under heavy random
// contention: every failure is either rebuilt, rebuilding, or still
// queued at mission end, and the queue-depth integral can never
// undercount the completed waits.
func TestFleetBacklogConservation(t *testing.T) {
	cfg := fastConfig()
	cfg.Trans.TTLd = dist.MustExponential(5e-4)
	cfg.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	scenarios := []FleetOptions{
		{Groups: 6, MaxConcurrentRebuilds: 1},
		{Groups: 6, MaxConcurrentRebuilds: 2},
		{Groups: 4, MaxConcurrentRebuilds: 1,
			SharedSpares: &SparePolicy{Initial: 1, ReplenishHours: 400}},
		{Groups: 8}, // unlimited: waits only from spares (none here)
	}
	for si, fc := range scenarios {
		sawQueuedAtEnd := false
		for i := 0; i < 300; i++ {
			_, st := simulateFleetSeeded(t, cfg, fc, uint64(640+si), uint64(i*fc.Groups))
			if st.Failures != st.Rebuilds+st.ActiveAtEnd+st.QueuedAtEnd {
				t.Fatalf("scenario %d iter %d: %d failures != %d + %d + %d",
					si, i, st.Failures, st.Rebuilds, st.ActiveAtEnd, st.QueuedAtEnd)
			}
			if st.QueuedAtEnd > 0 {
				sawQueuedAtEnd = true
			}
			if st.Waited > st.Failures {
				t.Fatalf("scenario %d: more waiters than failures: %+v", si, st)
			}
			if st.MaxWaitHours > st.TotalWaitHours+1e-9 {
				t.Fatalf("scenario %d: max wait exceeds total: %+v", si, st)
			}
			var groupSum float64
			for _, w := range st.GroupWaitHours {
				if w < 0 {
					t.Fatalf("scenario %d: negative group wait %v", si, w)
				}
				groupSum += w
			}
			if math.Abs(groupSum-st.TotalWaitHours) > 1e-6*(1+st.TotalWaitHours) {
				t.Fatalf("scenario %d: group waits %v != total %v", si, groupSum, st.TotalWaitHours)
			}
			// The depth integral counts completed waits in full and pending
			// ones partially; it can equal but never undercut the total.
			if st.MeanQueueDepth*cfg.Mission < st.TotalWaitHours-1e-6*(1+st.TotalWaitHours) {
				t.Fatalf("scenario %d: depth integral %v < total wait %v",
					si, st.MeanQueueDepth*cfg.Mission, st.TotalWaitHours)
			}
			if fc.SharedSpares == nil && fc.MaxConcurrentRebuilds == 0 {
				// Uncontended: every rebuild starts at its failure instant, so
				// no waits and a queue that never has width.
				if st.Waited != 0 || st.TotalWaitHours != 0 || st.QueuedAtEnd != 0 || st.MeanQueueDepth != 0 {
					t.Fatalf("scenario %d: uncontended fleet accrued waits: %+v", si, st)
				}
			}
		}
		if fc.MaxConcurrentRebuilds == 1 && !sawQueuedAtEnd {
			// Not a failure of the invariant, but the test would be weak if
			// the queue never survived to mission end in 300 chronologies.
			t.Logf("scenario %d: no chronology ended with a non-empty queue", si)
		}
	}
}

// Tighter contention must never reduce the backlog: the same fleet and
// streams with fewer repair slots sees (weakly) more total wait and a
// deeper queue.
func TestFleetBacklogMonotoneInSlots(t *testing.T) {
	cfg := fastConfig()
	slots := []int{1, 2, 4, 0} // 0 = unlimited
	waits := make([]float64, len(slots))
	for si, k := range slots {
		var total float64
		for i := 0; i < 400; i++ {
			_, st := simulateFleetSeeded(t, cfg, FleetOptions{Groups: 6, MaxConcurrentRebuilds: k}, 650, uint64(i*6))
			total += st.TotalWaitHours
		}
		waits[si] = total
	}
	for i := 1; i < len(waits); i++ {
		if waits[i] > waits[i-1]+1e-9 {
			t.Errorf("wait not monotone in repair slots: %v (slots %v)", waits, slots)
		}
	}
	if waits[0] <= waits[len(waits)-1] {
		t.Errorf("single repair slot should accrue real waits: %v", waits)
	}
}

// Semantic confirmation (both engines): a latent defect ARRIVING while
// the group already has Redundancy failed drives does not record a DDF —
// DDFs are only determined at operational-failure instants. The
// companion scenario swaps the defect for a failure at the same instant
// and does lose data, proving the window was live.
func TestScriptedDefectAtRedundancyNoDDF(t *testing.T) {
	script := func() Config {
		return Config{
			Drives:     3,
			Redundancy: 1,
			Mission:    1000,
			Trans: Transitions{
				// Slot 0 fails at 100, rebuilt by 200; nothing else fails.
				TTOp: newScripted(100, 5000, 5000, 5000),
				TTR:  newScripted(100),
				// One defect on slot 1 at t=150 — inside the degraded window.
				TTLd:    newScripted(2000, 150, 2000, 2000, 2000),
				TTScrub: newScripted(500, 500),
			},
		}
	}
	engineDDFs, err := simulate(EventEngine{}, script(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(engineDDFs) != 0 {
		t.Errorf("event engine: defect during degraded window recorded %v, want none", engineDDFs)
	}
	fleetGroups, _ := simulateFleetSeeded(t, script(), FleetOptions{Groups: 1}, 1, 0)
	if len(fleetGroups[0]) != 0 {
		t.Errorf("fleet engine: defect during degraded window recorded %v, want none", fleetGroups[0])
	}

	// Companion: an operational failure at 150 instead of the defect IS a
	// DDF — the degraded window was real, the defect arrival just isn't a
	// loss event.
	live := func() Config {
		return Config{
			Drives:     3,
			Redundancy: 1,
			Mission:    1000,
			Trans: Transitions{
				TTOp: newScripted(100, 5000, 150, 5000, 5000),
				TTR:  newScripted(100, 100),
			},
		}
	}
	engineDDFs, err = simulate(EventEngine{}, live(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(engineDDFs) != 1 || engineDDFs[0].Time != 150 || engineDDFs[0].Cause != CauseOpOp {
		t.Errorf("event engine companion: %v, want [{150 op+op}]", engineDDFs)
	}
	fleetGroups, _ = simulateFleetSeeded(t, live(), FleetOptions{Groups: 1}, 1, 0)
	if len(fleetGroups[0]) != 1 || fleetGroups[0][0] != engineDDFs[0] {
		t.Errorf("fleet engine companion: %v, want %v", fleetGroups[0], engineDDFs)
	}
}

// A queued DDF rebuild keeps its suppression window open until the
// rebuild actually completes: failures landing while the loss is still
// unrepaired (even though the repair has not started) must not record a
// second DDF.
func TestFleetScriptedSuppressionSpansQueueWait(t *testing.T) {
	cfg := Config{
		Drives:     3,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			// Group 0: slot 0 at 100 (holds the repair slot for 500 h).
			// Group 1: failures at 110, 120 (DDF, rebuild queued), 130
			// (inside the unrepaired window -> suppressed).
			TTOp: newScripted(100, 5000, 5000, 110, 120, 130, 5000, 5000),
			TTR:  newScripted(500, 10, 10, 10),
		},
	}
	groups, st := simulateFleetSeeded(t, cfg, FleetOptions{Groups: 2, MaxConcurrentRebuilds: 1}, 1, 0)
	if len(groups[1]) != 1 || groups[1][0].Time != 120 {
		t.Errorf("group 1 DDFs = %v, want only the 120 event (130 suppressed while queued)", groups[1])
	}
	if st.MaxQueueDepth != 3 {
		t.Errorf("MaxQueueDepth = %d, want 3", st.MaxQueueDepth)
	}
}

// An ld+op DDF whose rebuild waits for a spare still repairs the defective
// drive together with the failed one, at the delayed restore — the event
// engine's rule. Slot 1's defect (created at 50, scrubbed at 850) makes
// slot 0's failure at 100 a DDF; the empty pool holds the rebuild until
// the replacement arrives at 300, so the restore lands at 350 and clears
// the defect with it. Slot 2's failure at 400 then finds a healthy group.
func TestFleetScriptedSpareWaitRepairsDefect(t *testing.T) {
	script := func() Config {
		return Config{
			Drives:     3,
			Redundancy: 1,
			Mission:    1000,
			Trans: Transitions{
				TTOp:    newScripted(100, 5000, 400, 5000),
				TTR:     newScripted(50),
				TTLd:    newScripted(2000, 50, 2000),
				TTScrub: newScripted(800),
			},
		}
	}
	pool := &SparePolicy{Initial: 0, ReplenishHours: 200}
	want := []DDF{{Time: 100, Cause: CauseLdOp}}

	cfg := script()
	cfg.Spares = pool
	engineDDFs, err := simulate(EventEngine{}, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(engineDDFs, want) {
		t.Errorf("event engine: %v, want %v", engineDDFs, want)
	}
	groups, _ := simulateFleetSeeded(t, script(), FleetOptions{Groups: 1, SharedSpares: pool}, 1, 0)
	if !reflect.DeepEqual(groups[0], want) {
		t.Errorf("fleet engine: %v, want %v", groups[0], want)
	}
}

// Cross-validation of the contended repair server against the analytic
// bounded-crew chain: with exponential rates, a single-crew fleet group's
// P(>= 1 DDF) must match NewBoundedRepairChain's absorption probability —
// exactly in distribution, so within Monte Carlo error here — while the
// unlimited-slot fleet matches the parallel-repair chain. The two chains
// sit many standard errors apart at these rates, so the test has the
// power to catch a repair server that silently ignores its slot bound.
func TestFleetContentionMatchesBoundedCrewMarkov(t *testing.T) {
	const (
		lambda     = 1e-4
		mu         = 5e-3
		mission    = 20000.0
		drives     = 6
		redundancy = 2
		iters      = 6000
	)
	cfg := Config{
		Drives:     drives,
		Redundancy: redundancy,
		Mission:    mission,
		Trans: Transitions{
			TTOp: dist.MustExponential(lambda),
			TTR:  dist.MustExponential(mu),
		},
	}
	simP := func(maxRebuilds int) float64 {
		res, err := RunSparse(RunSpec{
			Config: cfg, Iterations: iters, Seed: 660,
			Fleet: &FleetOptions{Groups: 1, MaxConcurrentRebuilds: maxRebuilds},
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.GroupsWithDDF()) / iters
	}
	chainP := func(build func() (*markov.Chain, error)) float64 {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.AbsorptionProbability(0, mission)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	bounded := chainP(func() (*markov.Chain, error) {
		return markov.NewBoundedRepairChain(drives, redundancy, 1, lambda, mu)
	})
	parallel := chainP(func() (*markov.Chain, error) {
		return markov.NewParallelRepairChain(drives, redundancy, lambda, mu)
	})
	se := math.Sqrt(bounded * (1 - bounded) / iters)
	if math.Abs(bounded-parallel) < 8*se {
		t.Fatalf("chains too close (%v vs %v) for a %v-SE test; pick hotter rates", bounded, parallel, se)
	}

	if got := simP(1); math.Abs(got-bounded) > 4*se {
		t.Errorf("single-crew fleet P(DDF) = %v, bounded chain says %v (4 SE = %v)", got, bounded, 4*se)
	}
	seP := math.Sqrt(parallel * (1 - parallel) / iters)
	if got := simP(0); math.Abs(got-parallel) > 4*seP {
		t.Errorf("unlimited fleet P(DDF) = %v, parallel chain says %v (4 SE = %v)", got, parallel, 4*seP)
	}
}
