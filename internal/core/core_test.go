package core

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"raidrel/internal/sim"
	"raidrel/internal/stats"
)

// reduced returns the base case shrunk for fast tests while preserving the
// qualitative physics.
func reduced(p Params) Params {
	return p
}

func TestBaseCaseValues(t *testing.T) {
	p := BaseCase()
	if p.GroupSize != 8 || p.Redundancy != 1 {
		t.Errorf("structure = %d drives, redundancy %d", p.GroupSize, p.Redundancy)
	}
	if p.MissionHours != 87600 {
		t.Errorf("mission = %v", p.MissionHours)
	}
	if p.TTOp.Scale != 461386 || p.TTOp.Shape != 1.12 || p.TTOp.Location != 0 {
		t.Errorf("TTOp = %+v", p.TTOp)
	}
	if p.TTR.Location != 6 || p.TTR.Scale != 12 || p.TTR.Shape != 2 {
		t.Errorf("TTR = %+v", p.TTR)
	}
	if !p.LatentDefects || p.TTLd.Shape != 1 {
		t.Errorf("TTLd = %+v enabled=%v", p.TTLd, p.LatentDefects)
	}
	// The latent-defect rate must be the Table 1 medium×low cell 1.08e-4.
	if rate := 1 / p.TTLd.Scale; math.Abs(rate-1.08e-4) > 2e-6 {
		t.Errorf("TTLd rate = %v, want ~1.08e-4", rate)
	}
	if !p.Scrub || p.TTScrub.Scale != 168 || p.TTScrub.Shape != 3 {
		t.Errorf("TTScrub = %+v enabled=%v", p.TTScrub, p.Scrub)
	}
}

func TestParamVariantHelpers(t *testing.T) {
	p := BaseCase()
	noLd := p.WithoutLatentDefects()
	if noLd.LatentDefects || noLd.Scrub {
		t.Error("WithoutLatentDefects left processes enabled")
	}
	if !p.LatentDefects {
		t.Error("variant helper mutated the receiver")
	}
	// WithScrubPeriod keeps a preset location (such as a drive-derived
	// minimum scrub pass), defaults an unset one to 6 h, and halves one
	// that reaches the period; the shape is always 3. Each subtest holds
	// the rows of one part of the rule.
	const driveScrub = 500e9 / (50e6 * 0.5) / 3600 // 500 GB at 25 MB/s effective
	type row struct {
		name         string
		loc, period  float64
		wantLocation float64
	}
	checkRows := func(t *testing.T, rows []row) {
		t.Helper()
		for _, c := range rows {
			q := p
			q.TTScrub = WeibullSpec{Location: c.loc}
			got := q.WithScrubPeriod(c.period)
			want := WeibullSpec{Location: c.wantLocation, Scale: c.period, Shape: 3}
			if !got.Scrub || got.TTScrub != want {
				t.Errorf("%s: WithScrubPeriod(%v) = %+v (scrub %v), want %+v",
					c.name, c.period, got.TTScrub, got.Scrub, want)
			}
			if _, err := New(got); err != nil {
				t.Errorf("%s: model rejected %+v: %v", c.name, got.TTScrub, err)
			}
		}
	}
	t.Run("periodic_policy", func(t *testing.T) {
		checkRows(t, []row{
			{"base case", 6, 12, 6},
			{"unset location defaults to 6 h (168 h period)", 0, 168, 6},
			{"unset location defaults to 6 h (48 h period)", 0, 48, 6},
		})
		if got := p.WithScrubPeriod(48); !got.Scrub || got.TTScrub.Scale != 48 {
			t.Errorf("base case at 48 h = %+v (scrub %v)", got.TTScrub, got.Scrub)
		}
	})
	t.Run("disabled_policy", func(t *testing.T) {
		for _, period := range []float64{0, -24} {
			if p.WithScrubPeriod(period).Scrub {
				t.Errorf("WithScrubPeriod(%v) should disable scrubbing", period)
			}
		}
	})
	t.Run("aggressive_period_keeps_location_below_scale", func(t *testing.T) {
		checkRows(t, []row{
			{"location at the period halved", 48, 48, 24},
			{"default above the period halved", 0, 4, 2},
		})
	})
	t.Run("drive_derived_minimum", func(t *testing.T) {
		checkRows(t, []row{
			{"preset location kept", driveScrub, 168, driveScrub},
		})
	})
	t.Run("non_finite_period_rejected", func(t *testing.T) {
		// A non-finite period passes the sign check; New must reject it.
		for _, period := range []float64{math.NaN(), math.Inf(1)} {
			if _, err := New(p.WithScrubPeriod(period)); err == nil {
				t.Errorf("New accepted scrub period %v", period)
			}
		}
	})
	b := p.WithOpShape(0.8)
	if b.TTOp.Shape != 0.8 || b.TTOp.Scale != p.TTOp.Scale {
		t.Errorf("WithOpShape = %+v", b.TTOp)
	}
}

func TestNewValidation(t *testing.T) {
	bad := BaseCase()
	bad.TTOp.Shape = -1
	if _, err := New(bad); err == nil {
		t.Error("negative shape accepted")
	}
	bad = BaseCase()
	bad.GroupSize = 1
	if _, err := New(bad); err == nil {
		t.Error("single-drive group accepted")
	}
	bad = BaseCase()
	bad.TTLd.Scale = 0
	if _, err := New(bad); err == nil {
		t.Error("zero TTLd scale accepted")
	}
	bad = BaseCase()
	bad.TTScrub.Shape = math.NaN()
	if _, err := New(bad); err == nil {
		t.Error("NaN scrub shape accepted")
	}
}

// The c-c variant without latent defects must track equation 3: ~0.277
// DDFs per 1,000 groups per 10 years is too rare to verify cheaply, so
// this test checks the comparison plumbing at paper scale with a modest
// group count and wide tolerance, plus exact MTTDL values.
func TestCompareWithMTTDLPlumbing(t *testing.T) {
	p := BaseCase().WithoutLatentDefects()
	p.ExponentialOp = true
	p.ExponentialRestore = true
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(2000, 21)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := m.CompareWithMTTDL(r, p.MissionHours)
	if err != nil {
		t.Fatal(err)
	}
	// The MTTDL input uses the nominal MTBF 461,386 h and MTTR 12 h, so
	// the MTTDL must be the paper's ~36,162 years.
	if math.Abs(cmp.MTTDLYears-36162) > 100 {
		t.Errorf("MTTDL = %v years, want ~36,162", cmp.MTTDLYears)
	}
	if cmp.MTTDL <= 0 {
		t.Errorf("expected positive MTTDL count, got %v", cmp.MTTDL)
	}
	if cmp.Simulated < 0 {
		t.Errorf("negative simulated count %v", cmp.Simulated)
	}
}

// The paper's headline: the base case without scrubbing yields on the
// order of 1,000+ DDFs per 1,000 groups in 10 years, versus MTTDL's ~0.3.
// A reduced-iteration run must already show a ratio of several hundred.
func TestHeadlineLatentDefectEffect(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mission base case is slow")
	}
	p := BaseCase().WithScrubPeriod(0)
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(400, 31)
	if err != nil {
		t.Fatal(err)
	}
	tenYear := r.DDFsPer1000GroupsAt(p.MissionHours)
	if tenYear < 700 || tenYear > 2000 {
		t.Errorf("no-scrub 10-year DDFs/1000 groups = %v, paper reports >1,200", tenYear)
	}
	opop, ldop := r.CauseBreakdown()
	if ldop < 50*math.Max(opop, 1) {
		t.Errorf("latent-defect DDFs %v should dwarf op-op %v", ldop, opop)
	}
}

func TestResultCurveAndROCOF(t *testing.T) {
	p := BaseCase().WithScrubPeriod(0)
	p.MissionHours = 30000
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(300, 41)
	if err != nil {
		t.Fatal(err)
	}
	times, vals := r.Curve(25)
	if len(times) != 25 || len(vals) != 25 {
		t.Fatalf("curve sizes %d/%d", len(times), len(vals))
	}
	if times[0] != 0 || times[24] != 30000 {
		t.Errorf("grid endpoints %v..%v", times[0], times[24])
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatal("cumulative curve decreased")
		}
	}
	rocof, err := r.ROCOF(5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rocof) != 6 {
		t.Fatalf("%d ROCOF windows", len(rocof))
	}
	var total float64
	for _, pt := range rocof {
		total += pt.Count
	}
	if math.Abs(total-vals[24]) > 1e-9 {
		t.Errorf("ROCOF windows sum to %v, curve ends at %v", total, vals[24])
	}
	// The no-scrub latent process must show an increasing ROCOF (Fig. 8).
	if !stats.IsIncreasingTrend(rocof) {
		t.Error("no-scrub ROCOF is not increasing")
	}
}

func TestFirstYearMatchesCurve(t *testing.T) {
	p := BaseCase()
	p.MissionHours = 20000
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(500, 51)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.FirstYearDDFsPer1000(), r.DDFsPer1000GroupsAt(8760); got != want {
		t.Errorf("FirstYear = %v, curve at 8760 = %v", got, want)
	}
}

func TestWithMixedVintages(t *testing.T) {
	vintages := []WeibullSpec{
		{Scale: 4.5444e5, Shape: 1.0987},
		{Scale: 7.5012e4, Shape: 1.4873},
	}
	p := BaseCase().WithMixedVintages(vintages)
	if len(p.SlotTTOp) != p.GroupSize {
		t.Fatalf("%d slot specs", len(p.SlotTTOp))
	}
	if p.SlotTTOp[0] != vintages[0] || p.SlotTTOp[1] != vintages[1] || p.SlotTTOp[2] != vintages[0] {
		t.Error("vintages not cycled across slots")
	}
	if _, err := New(p); err != nil {
		t.Fatalf("mixed-vintage params rejected: %v", err)
	}
	// Clearing works.
	if cleared := p.WithMixedVintages(nil); cleared.SlotTTOp != nil {
		t.Error("WithMixedVintages(nil) did not clear")
	}
}

func TestSlotTTOpValidation(t *testing.T) {
	p := BaseCase()
	p.SlotTTOp = []WeibullSpec{{Scale: 1, Shape: 1}} // wrong length
	if _, err := New(p); err == nil {
		t.Error("mismatched slot specs accepted")
	}
	p = BaseCase()
	p.SlotTTOp = make([]WeibullSpec, p.GroupSize)
	p.SlotTTOp[3] = WeibullSpec{Scale: -1, Shape: 1}
	if _, err := New(p); err == nil {
		t.Error("invalid slot spec accepted")
	}
	// All-zero specs fall back to the shared TTOp.
	p = BaseCase()
	p.SlotTTOp = make([]WeibullSpec, p.GroupSize)
	if _, err := New(p); err != nil {
		t.Errorf("zero-value slot specs rejected: %v", err)
	}
}

// A frail vintage mixed into the group raises fleet risk versus the pure
// healthy group — the architect's question the paper closes with.
func TestMixedVintageRaisesRisk(t *testing.T) {
	base := BaseCase()
	base.MissionHours = 30000
	healthy, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := New(base.WithMixedVintages([]WeibullSpec{
		base.TTOp,
		{Scale: 7.5012e4, Shape: 1.4873}, // the paper's worst vintage
	}))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := healthy.Run(1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := mixed.Run(1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := hr.DDFsPer1000GroupsAt(base.MissionHours)
	m := mr.DDFsPer1000GroupsAt(base.MissionHours)
	if m <= h {
		t.Errorf("mixed-vintage risk %v not above healthy %v", m, h)
	}
}

func TestConfidenceInterval(t *testing.T) {
	p := BaseCase()
	p.MissionHours = 20000
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(2000, 61)
	if err != nil {
		t.Fatal(err)
	}
	point := r.DDFsPer1000GroupsAt(20000)
	ci, err := r.ConfidenceInterval(20000, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo > point || ci.Hi < point {
		t.Errorf("CI [%v, %v] excludes the point estimate %v", ci.Lo, ci.Hi, point)
	}
	if ci.Hi-ci.Lo <= 0 {
		t.Error("degenerate CI")
	}
	// ~Poisson counts: width should be near 2·1.96·sqrt(point/groups)·1000.
	if ci.Hi-ci.Lo > point {
		t.Errorf("CI width %v implausibly wide for %v", ci.Hi-ci.Lo, point)
	}
	if _, err := r.ConfidenceInterval(20000, 0); err == nil {
		t.Error("level 0 accepted")
	}
}

func TestRunRejectsBadIterations(t *testing.T) {
	m, err := New(BaseCase())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(0, 1); err == nil {
		t.Error("zero iterations accepted")
	}
}

func topoParams() Params {
	return Params{
		GroupSize:    8,
		Redundancy:   1,
		MissionHours: 87600,
		TTOp:         WeibullSpec{Scale: 100000, Shape: 1},
		TTR:          WeibullSpec{Scale: 100, Shape: 1},
		Topology: &TopologySpec{Components: []ComponentSpec{
			{Name: "enclosure", Drives: []int{6, 7},
				TTOp: WeibullSpec{Scale: 200000, Shape: 1}, TTR: WeibullSpec{Scale: 500, Shape: 1}},
			{Name: "expander-a", Parent: "enclosure", Drives: []int{0, 1, 2}, Paths: 2,
				TTOp: WeibullSpec{Scale: 150000, Shape: 1}, TTR: WeibullSpec{Scale: 300, Shape: 1}},
			{Name: "expander-b", Parent: "enclosure", Drives: []int{3, 4, 5},
				TTOp: WeibullSpec{Scale: 150000, Shape: 1}, TTR: WeibullSpec{Scale: 300, Shape: 1}},
		}},
	}
}

// The component tree resolves to effective drive covers: a parent covers
// its own slots plus every descendant's.
func TestTopologySpecTreeResolution(t *testing.T) {
	m, err := New(topoParams())
	if err != nil {
		t.Fatal(err)
	}
	topo := m.SimConfig().Topology
	if topo == nil || len(topo.Components) != 3 {
		t.Fatalf("topology = %+v", topo)
	}
	wantDrives := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7}, // enclosure: own 6,7 + both expander subtrees
		{0, 1, 2},
		{3, 4, 5},
	}
	for i, c := range topo.Components {
		if len(c.Drives) != len(wantDrives[i]) {
			t.Fatalf("component %s covers %v, want %v", c.Name, c.Drives, wantDrives[i])
		}
		for j := range c.Drives {
			if c.Drives[j] != wantDrives[i][j] {
				t.Fatalf("component %s covers %v, want %v", c.Name, c.Drives, wantDrives[i])
			}
		}
	}
	if topo.Components[1].Paths != 2 {
		t.Errorf("expander-a paths = %d, want 2", topo.Components[1].Paths)
	}
}

func TestTopologySpecErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
		want string
	}{
		{"unknown parent", func(p *Params) { p.Topology.Components[1].Parent = "nope" }, "unknown parent"},
		{"self cycle", func(p *Params) { p.Topology.Components[0].Parent = "enclosure" }, "cycle"},
		{"two cycle", func(p *Params) { p.Topology.Components[0].Parent = "expander-a" }, "cycle"},
		{"dup name", func(p *Params) { p.Topology.Components[2].Name = "expander-a" }, "duplicate"},
		{"no name", func(p *Params) { p.Topology.Components[0].Name = "" }, "no name"},
		{"slot range", func(p *Params) { p.Topology.Components[0].Drives = []int{11} }, "outside the group"},
		{"bad dist", func(p *Params) { p.Topology.Components[0].TTOp = WeibullSpec{} }, "TTOp"},
	}
	for _, tc := range cases {
		p := topoParams()
		tc.mut(&p)
		_, err := New(p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// Coupled topologies cannot combine with per-slot engine features.
	p := topoParams()
	p.VR = sim.VR{Antithetic: true}
	if _, err := New(p); err == nil {
		t.Error("vr+topology accepted")
	}
}

// The JSON wire form round-trips, including the optional tree and paths
// fields, in the snake_case the service API uses.
func TestTopologySpecJSONRoundTrip(t *testing.T) {
	p := topoParams()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"topology"`, `"components"`, `"parent":"enclosure"`, `"paths":2`, `"tt_op"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("wire form misses %s: %s", want, data)
		}
	}
	var back Params
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Topology == nil || len(back.Topology.Components) != 3 {
		t.Fatalf("round trip lost the topology: %+v", back.Topology)
	}
	if _, err := New(back); err != nil {
		t.Fatalf("round-tripped params invalid: %v", err)
	}

	// Flat params keep their legacy wire form: no topology key at all.
	flat := topoParams()
	flat.Topology = nil
	data, err = json.Marshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "topology") {
		t.Errorf("flat params leak a topology key: %s", data)
	}
}

// A coupled model runs end-to-end through Model.Run and surfaces the
// unavailability statistics next to (but never inside) the loss curve.
func TestModelRunWithTopologyUnavailability(t *testing.T) {
	p := Params{
		GroupSize:    4,
		Redundancy:   1,
		MissionHours: 20000,
		TTOp:         WeibullSpec{Scale: 1e9, Shape: 1}, // drives effectively never fail
		TTR:          WeibullSpec{Scale: 100, Shape: 1},
		Topology: &TopologySpec{Components: []ComponentSpec{
			{Name: "enclosure", Drives: []int{0, 1, 2, 3},
				TTOp: WeibullSpec{Scale: 10000, Shape: 1}, TTR: WeibullSpec{Scale: 1000, Shape: 1}},
		}},
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(800, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Raw.TotalDDFs != 0 {
		t.Errorf("losses with drives disabled: %d", res.Raw.TotalDDFs)
	}
	if got := res.DDFsPer1000GroupsAt(p.MissionHours); got != 0 {
		t.Errorf("loss curve contaminated by unavailability: %v", got)
	}
	if res.GroupUnavailProbability() <= 0 || res.GroupUnavailProbability() > 1 {
		t.Errorf("P(unavail) = %v", res.GroupUnavailProbability())
	}
	if res.UnavailPer1000Groups() <= 0 {
		t.Errorf("unavail per 1000 = %v", res.UnavailPer1000Groups())
	}
}

// Model.Run rounds a variance-reduced run up to whole VR blocks, exactly
// as RunAdaptive rounds its budget: a 128-iteration stratified run of the
// default 256-iteration block simulates the whole block, so it reports 256
// groups and reproduces the 256-iteration run bit for bit. A run cut at
// 128 would stratify over half the quantile range and bias the estimate.
func TestRunRoundsToWholeVRBlocks(t *testing.T) {
	p := BaseCase()
	p.TTOp.Scale = 20000 // hot enough that most groups lose data
	p.VR = sim.VR{Stratify: true}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	half, err := m.Run(128, 9)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := m.Run(256, 9)
	if err != nil {
		t.Fatal(err)
	}
	if half.Groups != 256 {
		t.Fatalf("Run(128) simulated %d groups, want one whole 256-iteration block", half.Groups)
	}
	ht, hw := half.Raw.TimesAndWeights()
	wt, ww := whole.Raw.TimesAndWeights()
	if len(wt) == 0 {
		t.Fatal("no DDFs in the whole block; the comparison is vacuous")
	}
	if !slices.Equal(ht, wt) || !slices.Equal(hw, ww) || half.Raw.GroupsWithDDF() != whole.Raw.GroupsWithDDF() {
		t.Errorf("Run(128): %d DDFs in %d groups, Run(256): %d DDFs in %d groups; want identical runs",
			len(ht), half.Raw.GroupsWithDDF(), len(wt), whole.Raw.GroupsWithDDF())
	}
}
