package sim

import (
	"math"
	"strings"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/markov"
	"raidrel/internal/rng"
)

func TestTopologyValidate(t *testing.T) {
	exp := dist.MustExponential(1e-5)
	good := func() *Topology {
		return &Topology{Components: []Component{
			{Name: "expander", Drives: []int{0, 1, 2}, Paths: 2, TTOp: exp, TTR: exp},
		}}
	}
	if err := good().Validate(8); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	var nilTopo *Topology
	if err := nilTopo.Validate(8); err != nil {
		t.Fatalf("nil topology rejected: %v", err)
	}
	if nilTopo.Coupled() || (&Topology{}).Coupled() {
		t.Fatal("nil/empty topology must be flat")
	}
	if !good().Coupled() {
		t.Fatal("component topology must report coupled")
	}

	cases := []struct {
		name string
		mut  func(*Topology)
		want string
	}{
		{"no name", func(tp *Topology) { tp.Components[0].Name = "" }, "no name"},
		{"dup name", func(tp *Topology) { tp.Components = append(tp.Components, tp.Components[0]) }, "duplicate"},
		{"no drives", func(tp *Topology) { tp.Components[0].Drives = nil }, "covers no drive"},
		{"slot out of range", func(tp *Topology) { tp.Components[0].Drives = []int{8} }, "outside the group"},
		{"negative slot", func(tp *Topology) { tp.Components[0].Drives = []int{-1} }, "outside the group"},
		{"dup slot", func(tp *Topology) { tp.Components[0].Drives = []int{1, 1} }, "twice"},
		{"negative paths", func(tp *Topology) { tp.Components[0].Paths = -1 }, "negative path"},
		{"no ttop", func(tp *Topology) { tp.Components[0].TTOp = nil }, "TTOp"},
		{"no ttr", func(tp *Topology) { tp.Components[0].TTR = nil }, "TTR"},
	}
	for _, tc := range cases {
		tp := good()
		tc.mut(tp)
		err := tp.Validate(8)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// Config-level cross-feature rules.
	cfg := fastConfig()
	cfg.Topology = good()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("coupled config rejected: %v", err)
	}
	cfg.Spares = &SparePolicy{Initial: 1}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "spare pool") {
		t.Errorf("spares+topology: err = %v", err)
	}
	cfg.Spares = nil
	cfg.VR = VR{Antithetic: true}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "variance reduction") {
		t.Errorf("vr+topology: err = %v", err)
	}
}

func TestTopologyStringDeterministic(t *testing.T) {
	var nilTopo *Topology
	if nilTopo.String() != "flat" || (&Topology{}).String() != "flat" {
		t.Fatal("flat topologies must print as \"flat\"")
	}
	mk := func() *Topology {
		return &Topology{Components: []Component{
			{Name: "enc", Drives: []int{0, 1}, TTOp: dist.MustExponential(1e-5), TTR: dist.MustExponential(1e-2)},
			{Name: "exp", Drives: []int{2, 3}, Paths: 2, TTOp: dist.MustExponential(2e-5), TTR: dist.MustExponential(1e-2)},
		}}
	}
	a, b := mk().String(), mk().String()
	if a != b {
		t.Fatalf("String not deterministic:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "enc") || !strings.Contains(a, "paths=2") {
		t.Errorf("String misses structure: %s", a)
	}
	if mk().String() == (&Topology{Components: []Component{
		{Name: "enc", Drives: []int{0, 1}, TTOp: dist.MustExponential(9e-5), TTR: dist.MustExponential(1e-2)},
	}}).String() {
		t.Error("different topologies print identically")
	}
}

// An explicitly flat (component-free) topology must compile down to
// exactly the nil-topology model: same DDF times, causes, and log weights
// per stream, for all three engines, plain and biased.
func TestFlatTopologyBitIdentical(t *testing.T) {
	base := fastConfig()
	base.Trans.TTLd = dist.MustExponential(5e-4)
	base.Trans.TTScrub = dist.MustWeibull(3, 168, 6)
	base.Mission = 30000

	biased := base
	biased.Bias = Bias{Op: 4}

	engines := []struct {
		name string
		e    Engine
	}{
		{"event", EventEngine{}},
		{"interval", IntervalEngine{}},
		{"block", BlockEngine{}},
	}
	for _, cfg := range []Config{base, biased} {
		for _, eng := range engines {
			flat := cfg
			flat.Topology = &Topology{}
			for seed := uint64(0); seed < 25; seed++ {
				a, lwA, errA := eng.e.SimulateInto(cfg, rng.ForStream(42, seed), nil)
				b, lwB, errB := eng.e.SimulateInto(flat, rng.ForStream(42, seed), nil)
				if errA != nil || errB != nil {
					t.Fatalf("%s: errs %v / %v", eng.name, errA, errB)
				}
				if lwA != lwB {
					t.Fatalf("%s seed %d: logW %v != %v", eng.name, seed, lwA, lwB)
				}
				if len(a) != len(b) {
					t.Fatalf("%s seed %d: %v != %v", eng.name, seed, a, b)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s seed %d: event %d: %+v != %+v", eng.name, seed, i, a[i], b[i])
					}
				}
			}
		}
	}
}

// Scripted coupled scenario: a component outage makes the group
// unavailable (one onset event) and pauses the in-flight rebuild, which
// resumes with its remaining hours once the component is repaired.
func TestScriptedComponentOutagePausesRebuild(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			// Slot 0 fails at 100; slot 1 and all replacements never.
			TTOp: newScripted(100, 5000, 5000),
			TTR:  newScripted(50, 50),
		},
		Topology: &Topology{Components: []Component{{
			Name:   "enclosure",
			Drives: []int{0, 1},
			// The enclosure fails at 120 (mid-rebuild) and is repaired 80 h
			// later, at 200.
			TTOp: newScripted(120, 5000),
			TTR:  newScripted(80),
		}}},
	}
	var tr Trace
	ddfs, err := SimulateTraced(cfg, rng.New(1), &tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(ddfs) != 1 || ddfs[0] != (DDF{Time: 120, Cause: CauseUnavail}) {
		t.Fatalf("events = %v, want one unavail onset at 120", ddfs)
	}
	// The rebuild started at 100 with TTR 50; it ran 20 h, was held for the
	// outage 120→200, and completes at 200 + remaining 30 = 230.
	var restores []float64
	for _, e := range tr.Events {
		if e.Kind == TraceOpRestore {
			restores = append(restores, e.Time)
		}
	}
	if len(restores) != 1 || restores[0] != 230 {
		t.Fatalf("restores = %v, want exactly [230]", restores)
	}
	if tr.Count(TraceCompFail) != 1 || tr.Count(TraceCompRestore) != 1 || tr.Count(TraceUnavail) != 1 {
		t.Fatalf("component trace counts wrong: %v", tr.Events)
	}
}

// Scripted coupled scenario: a second drive failure during the outage is a
// real data loss (the platters fail whether or not the expander routes to
// them), recorded on top of the earlier unavailability onset; the DDF
// suppression window stretches to the paused rebuild's eventual end.
func TestScriptedDataLossDuringOutage(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			// Slot 0 fails at 100, slot 1 at 160 (during the outage).
			TTOp: newScripted(100, 160, 5000, 5000),
			TTR:  newScripted(50, 50),
		},
		Topology: &Topology{Components: []Component{{
			Name:   "enclosure",
			Drives: []int{0, 1},
			TTOp:   newScripted(120, 5000),
			TTR:    newScripted(80),
		}}},
	}
	ddfs, err := simulate(EventEngine{}, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []DDF{{Time: 120, Cause: CauseUnavail}, {Time: 160, Cause: CauseOpOp}}
	if len(ddfs) != 2 || ddfs[0] != want[0] || ddfs[1] != want[1] {
		t.Fatalf("events = %v, want %v", ddfs, want)
	}
}

// Dual-pathed components only go dark when every path is down: with one of
// two paths failing, nothing happens.
func TestDualPathedComponentSurvivesSinglePathLoss(t *testing.T) {
	cfg := Config{
		Drives:     2,
		Redundancy: 1,
		Mission:    1000,
		Trans: Transitions{
			TTOp: newScripted(5000, 5000),
			TTR:  newScripted(50),
		},
		Topology: &Topology{Components: []Component{{
			Name:   "expander",
			Drives: []int{0, 1},
			Paths:  2,
			// Path instances fail at 100 and 400; each repair takes 200 h,
			// so their down intervals [100,300] and [400,600] never overlap
			// and the component never goes fully down.
			TTOp: newScripted(100, 400, 5000, 5000),
			TTR:  newScripted(200, 200),
		}}},
	}
	var tr Trace
	ddfs, err := SimulateTraced(cfg, rng.New(1), &tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(ddfs) != 0 {
		t.Fatalf("events = %v, want none (paths never overlap)", ddfs)
	}
	if tr.Count(TraceCompFail) != 2 || tr.Count(TraceUnavail) != 0 {
		t.Fatalf("trace = %v", tr.Events)
	}
}

// With drive failures switched off, the simulated first-unavailability
// probability of a dual-pathed component covering the whole group must
// match the component path chain's absorption probability exactly (both
// processes are the same CTMC).
func TestUnavailMatchesComponentPathChain(t *testing.T) {
	const (
		lambdaC = 2e-4
		muC     = 2e-3
		horizon = 40000.0
	)
	chain, err := markov.NewComponentPathChain(2, lambdaC, muC)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := chain.AbsorptionProbability(0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    horizon,
		Trans: Transitions{
			TTOp: dist.MustExponential(1e-9), // drives effectively never fail
			TTR:  dist.MustExponential(1e-2),
		},
		Topology: &Topology{Components: []Component{{
			Name: "expander", Drives: []int{0, 1, 2, 3, 4, 5, 6, 7}, Paths: 2,
			TTOp: dist.MustExponential(lambdaC),
			TTR:  dist.MustExponential(muC),
		}}},
	}
	res, err := RunSparse(RunSpec{Config: cfg, Iterations: 6000, Seed: 99, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDDFs != 0 {
		t.Fatalf("drive losses with drives disabled: %d", res.TotalDDFs)
	}
	gotP := float64(res.GroupsWithUnavail()) / float64(res.Groups)
	// Monte Carlo SE ~ sqrt(p(1-p)/6000); allow 4 SE.
	se := math.Sqrt(wantP * (1 - wantP) / 6000)
	if math.Abs(gotP-wantP) > 4*se+1e-9 {
		t.Errorf("P(unavail by %v) = %v, path chain says %v (±%v)", horizon, gotP, wantP, 4*se)
	}
}

// With exponential distributions everywhere and one single-path component
// carrying the whole group, the simulated P(≥1 data loss) must match the
// shared-component chain — which is exact here, because the paused
// rebuild's remaining exponential repair time is memoryless. This is the
// cross-check that pins the rebuild-pause coupling, not just the onset
// bookkeeping.
func TestCoupledDDFMatchesSharedComponentChain(t *testing.T) {
	const (
		lambda  = 2e-5
		mu      = 5e-3
		lambdaC = 5e-5
		muC     = 5e-4 // long outages: rebuilds pause for ~2000 h
		horizon = 87600.0
	)
	chain, err := markov.NewSharedComponentChain(7, lambda, mu, lambdaC, muC)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := chain.AbsorptionProbability(markov.SCAllGoodUp, horizon)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the coupling must matter — the same group without the shared
	// component loses data measurably less often.
	flat, err := markov.NewRAIDChain(7, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	flatP, err := flat.AbsorptionProbability(markov.RAIDAllGood, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if wantP <= flatP*1.05 {
		t.Fatalf("coupled chain %v barely above flat %v; rates too mild to test the coupling", wantP, flatP)
	}

	cfg := Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    horizon,
		Trans: Transitions{
			TTOp: dist.MustExponential(lambda),
			TTR:  dist.MustExponential(mu),
		},
		Topology: &Topology{Components: []Component{{
			Name: "expander", Drives: []int{0, 1, 2, 3, 4, 5, 6, 7},
			TTOp: dist.MustExponential(lambdaC),
			TTR:  dist.MustExponential(muC),
		}}},
	}
	const iters = 8000
	res, err := RunSparse(RunSpec{Config: cfg, Iterations: iters, Seed: 4242, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	gotP := float64(res.GroupsWithDDF()) / float64(res.Groups)
	se := math.Sqrt(wantP * (1 - wantP) / iters)
	if math.Abs(gotP-wantP) > 4*se {
		t.Errorf("P(loss by %v) = %v, shared-component chain says %v (±%v)", horizon, gotP, wantP, 4*se)
	}
	if res.GroupsWithUnavail() == 0 {
		t.Error("no unavailability episodes at these component rates")
	}
}

// Unavailability onsets must stay out of every loss statistic and in the
// unavailability counters, through tally, merge, and the flat loss index.
func TestSparseResultSeparatesUnavailFromLoss(t *testing.T) {
	var r SparseResult
	r.Observe(0, []DDF{{Time: 10, Cause: CauseUnavail}, {Time: 20, Cause: CauseOpOp}}, 0)
	r.Observe(1, nil, 0)
	r.Observe(2, []DDF{{Time: 5, Cause: CauseUnavail}}, 0)
	if r.TotalDDFs != 1 || r.OpOpDDFs != 1 || r.UnavailEvents != 2 {
		t.Fatalf("tallies: total=%d opop=%d unavail=%d", r.TotalDDFs, r.OpOpDDFs, r.UnavailEvents)
	}
	if got := r.GroupsWithDDF(); got != 1 {
		t.Errorf("GroupsWithDDF = %d, want 1", got)
	}
	if got := r.GroupsWithUnavail(); got != 2 {
		t.Errorf("GroupsWithUnavail = %d, want 2", got)
	}
	if ts := r.Times(); len(ts) != 1 || ts[0] != 20 {
		t.Errorf("loss times = %v, want [20]", ts)
	}
	if n := r.DDFsBefore(15); n != 0 {
		t.Errorf("DDFsBefore(15) = %d, want 0 (onset at 10 is not loss)", n)
	}
	total, opop, ldop := r.WeightedCauseTotals()
	if total != 1 || opop != 1 || ldop != 0 {
		t.Errorf("weighted totals = %v %v %v", total, opop, ldop)
	}
	if w := r.WeightedUnavailTotal(); w != 2 {
		t.Errorf("WeightedUnavailTotal = %v, want 2", w)
	}
	if ws := r.GroupWeights(); len(ws) != 1 {
		t.Errorf("GroupWeights = %v, want one entry", ws)
	}
	if counts := r.GroupCounts(100); len(counts) != 1 || counts[0] != 1 {
		t.Errorf("GroupCounts = %v, want [1]", counts)
	}

	var m SparseResult
	m.Observe(0, []DDF{{Time: 7, Cause: CauseUnavail}}, 0)
	r.Merge(&m)
	if r.UnavailEvents != 3 || r.TotalDDFs != 1 || r.Groups != 4 {
		t.Errorf("after merge: unavail=%d total=%d groups=%d", r.UnavailEvents, r.TotalDDFs, r.Groups)
	}
	r.Tally()
	if r.UnavailEvents != 3 || r.TotalDDFs != 1 {
		t.Errorf("after tally: unavail=%d total=%d", r.UnavailEvents, r.TotalDDFs)
	}
}

// Importance sampling composes with coupled topologies: component draws
// are never tilted (their likelihood-ratio factor is 1), so the weighted
// loss estimate from a biased coupled run must agree with the plain
// coupled run.
func TestCoupledTopologyBiasedAgreesWithPlain(t *testing.T) {
	cfg := Config{
		Drives:     8,
		Redundancy: 1,
		Mission:    20000,
		Trans: Transitions{
			TTOp: dist.MustExponential(3e-5),
			TTR:  dist.MustExponential(5e-3),
		},
		Topology: &Topology{Components: []Component{{
			Name: "expander", Drives: []int{0, 1, 2, 3, 4, 5, 6, 7},
			TTOp: dist.MustExponential(5e-5),
			TTR:  dist.MustExponential(1e-3),
		}}},
	}
	const iters = 20000
	plain, err := RunSparse(RunSpec{Config: cfg, Iterations: iters, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	bcfg := cfg
	bcfg.Bias = Bias{Op: 2}
	biased, err := RunSparse(RunSpec{Config: bcfg, Iterations: iters, Seed: 6, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pPlain := float64(plain.GroupsWithDDF()) / float64(plain.Groups)
	sum := 0.0
	for _, w := range biased.GroupWeights() {
		sum += w
	}
	pBiased := sum / float64(biased.Groups)
	if pPlain == 0 || pBiased == 0 {
		t.Fatalf("no losses: plain=%v biased=%v", pPlain, pBiased)
	}
	rel := math.Abs(pPlain-pBiased) / pPlain
	if rel > 0.35 {
		t.Errorf("weighted biased estimate %v vs plain %v (rel %v)", pBiased, pPlain, rel)
	}
	if !biased.Weighted() {
		t.Error("biased run reports unweighted")
	}
}

// Satellite: at low (realistic) rates the redundancy-2 DDF probability is
// a rare event; the importance-sampled event-engine estimate must still
// track the Markov prediction. The reference is the parallel-repair chain,
// which is exact for the simulator's per-slot restore process; the classic
// single-crew double-parity chain brackets it from above (serialized
// repairs keep the group degraded for longer). Seed-pinned and
// tolerance-based.
func TestRedundancy2LowRateMatchesDoubleParityChain(t *testing.T) {
	const (
		lambda  = 1e-5 // MTBF 100,000 h — realistic rates
		mu      = 1e-2
		horizon = 20000.0 // short enough that the tilt stays well-conditioned
	)
	exact, err := markov.NewParallelRepairChain(8, 2, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := exact.AbsorptionProbability(0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	crew, err := markov.NewDoubleParityChain(8, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	crewP, err := crew.AbsorptionProbability(markov.DPAllGood, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if wantP >= crewP {
		t.Fatalf("parallel-repair chain %v not below single-crew chain %v", wantP, crewP)
	}

	cfg := Config{
		Drives:     8,
		Redundancy: 2,
		Mission:    horizon,
		Trans: Transitions{
			TTOp: dist.MustExponential(lambda),
			TTR:  dist.MustExponential(mu),
		},
		Bias: Bias{Op: 2},
	}
	const iters = 200000
	res, err := RunSparse(RunSpec{Config: cfg, Iterations: iters, Seed: 99, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, w := range res.GroupWeights() {
		sum += w
	}
	gotP := sum / float64(res.Groups)
	if gotP == 0 {
		t.Fatal("no weighted losses; bias too weak")
	}
	rel := math.Abs(gotP-wantP) / wantP
	if rel > 0.50 {
		t.Errorf("weighted P(triple loss) = %v, exact chain says %v (rel err %v)", gotP, wantP, rel)
	}
}
