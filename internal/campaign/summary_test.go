package campaign

import (
	"context"
	"math"
	"reflect"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/sim"
	"raidrel/internal/stats"
)

// biasedTopologyConfig is fastConfig with a tilted TTOp hazard and one
// shared enclosure whose outages push the group past its redundancy, so
// the run carries unavailability onsets (CauseUnavail) between weighted
// loss events.
func biasedTopologyConfig() sim.Config {
	cfg := fastConfig()
	cfg.Bias.Op = 2
	cfg.Topology = &sim.Topology{Components: []sim.Component{{
		Name:   "enclosure",
		Drives: []int{0, 1, 2, 3, 4, 5, 6, 7},
		TTOp:   dist.MustExponential(5e-4),
		TTR:    dist.MustExponential(1e-3),
	}}}
	return cfg
}

// summaryCases are the campaigns the incremental summary must track bit
// for bit: the weighted interval, the Wilson interval, the block-mean VR
// interval, and a weighted run interleaving unavailability onsets.
func summaryCases() []struct {
	name string
	spec Spec
} {
	biased := rareConfig()
	biased.Bias.Op = 8
	cond := scrubBaseConfig()
	cond.VR = sim.VR{Antithetic: true, Stratify: true, CondVariate: true, BlockSize: 64}
	return []struct {
		name string
		spec Spec
	}{
		{"biased-rare", Spec{Config: biased, Seed: 42, BatchSize: 2000, TargetRelErr: 0.1}},
		{"plain-base", Spec{Config: scrubBaseConfig(), Seed: 3, BatchSize: 1000, TargetRelErr: 0.05}},
		{"cond-vr", Spec{Config: cond, Seed: 77, BatchSize: 1024, TargetRelErr: 0.02}},
		{"biased-topology", Spec{Config: biasedTopologyConfig(), Seed: 17, BatchSize: 200, MaxIterations: 1600}},
	}
}

// sameStats fails t unless got carries want's summary statistics bit for
// bit.
func sameStats(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.CI != want.CI || !sameFloat(got.RelErr, want.RelErr) || !sameFloat(got.ESS, want.ESS) ||
		got.GroupsWithDDF != want.GroupsWithDDF || got.GroupsWithUnavail != want.GroupsWithUnavail {
		t.Fatalf("%s: CI %+v relerr %v ess %v k=%d unavail=%d, want CI %+v relerr %v ess %v k=%d unavail=%d",
			what, got.CI, got.RelErr, got.ESS, got.GroupsWithDDF, got.GroupsWithUnavail,
			want.CI, want.RelErr, want.ESS, want.GroupsWithDDF, want.GroupsWithUnavail)
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkWholeVector fails t unless res carries the statistics computed the
// direct way, over the whole run at once: the SparseResult group counts,
// and for a weighted interval stats.ESS and stats.WeightedBernoulliCI over
// GroupWeights().
func checkWholeVector(t *testing.T, spec Spec, run *sim.SparseResult, res *Result) {
	t.Helper()
	if res.GroupsWithDDF != run.GroupsWithDDF() || res.GroupsWithUnavail != run.GroupsWithUnavail() {
		t.Fatalf("groups k=%d unavail=%d, whole run k=%d unavail=%d",
			res.GroupsWithDDF, res.GroupsWithUnavail, run.GroupsWithDDF(), run.GroupsWithUnavail())
	}
	if !spec.Config.Bias.Enabled() {
		return
	}
	ws := run.GroupWeights()
	if ess := stats.ESS(ws); !sameFloat(res.ESS, ess) {
		t.Fatalf("ess %v, whole vector %v", res.ESS, ess)
	}
	if ci, err := stats.WeightedBernoulliCI(ws, run.Groups, spec.Confidence); err != nil || res.CI != ci {
		t.Fatalf("weighted CI %+v, whole vector %+v (err %v)", res.CI, ci, err)
	}
}

// TestIncrementalSummaryMatchesSummarize checks, after every batch, that
// the statistics Run reports from its incrementally extended summary equal
// a from-scratch Summarize of the run so far: the batch snapshots against
// an independent replay of the same batches, the extended summary itself
// (GroupsWithUnavail included) against Summarize and the direct
// whole-vector statistics at each replay step, and the final Result
// against Summarize of its own run.
func TestIncrementalSummaryMatchesSummarize(t *testing.T) {
	for _, c := range summaryCases() {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			var snaps []Snapshot
			spec.Progress = ProgressFunc(func(s Snapshot) {
				if !s.Done {
					snaps = append(snaps, s)
				}
			})
			res, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) < 3 {
				t.Fatalf("campaign ran %d batches; too few to test incremental extension", len(snaps))
			}
			if res.GroupsWithDDF == 0 {
				t.Fatal("campaign saw no DDF group; the test is vacuous")
			}
			if c.spec.Config.Topology != nil && res.GroupsWithUnavail == 0 {
				t.Fatal("topology campaign saw no unavailable group; the test is vacuous")
			}
			sameStats(t, "final result", res, Summarize(c.spec, res.Run))

			def := c.spec.withDefaults()
			run := &sim.SparseResult{}
			sum := newSummary(def)
			for i, s := range snaps {
				br, err := sim.RunSparse(sim.RunSpec{
					Config:     def.Config,
					Iterations: s.Iterations - run.Groups,
					Seed:       def.Seed,
					Offset:     run.Groups,
				})
				if err != nil {
					t.Fatal(err)
				}
				run.Merge(br)
				sum.extend(run)
				want := Summarize(c.spec, run)
				sameStats(t, "extended summary", assemble(def, sum, run, i+1, 0, 0), want)
				checkWholeVector(t, def, run, want)
				if s.CI != want.CI || !sameFloat(s.RelErr, want.RelErr) || !sameFloat(s.ESS, want.ESS) ||
					s.GroupsWithDDF != want.GroupsWithDDF || s.UnavailEvents != run.UnavailEvents {
					t.Fatalf("batch %d: snapshot CI %+v relerr %v ess %v k=%d unavail=%d, from scratch CI %+v relerr %v ess %v k=%d unavail=%d",
						i+1, s.CI, s.RelErr, s.ESS, s.GroupsWithDDF, s.UnavailEvents,
						want.CI, want.RelErr, want.ESS, want.GroupsWithDDF, run.UnavailEvents)
				}
			}
		})
	}
}

// TestSummaryRejectsInvalidWeight pins the outcome when a log weight
// overflows: like stats.WeightedBernoulliCI over the whole vector, the
// weighted interval stays unavailable (zero CI, infinite relative error)
// from that batch on, whether the bad weight arrived in one step or in a
// later extension.
func TestSummaryRejectsInvalidWeight(t *testing.T) {
	cfg := fastConfig()
	cfg.Bias.Op = 2
	spec := Spec{Config: cfg, Seed: 1, MaxIterations: 10}.withDefaults()
	run := &sim.SparseResult{Groups: 10, Events: []sim.GroupEvent{
		{Group: 2, LogW: -0.5, DDF: sim.DDF{Time: 10, Cause: sim.CauseOpOp}},
	}}
	run.Tally()
	sum := newSummary(spec)
	sum.extend(run)
	if res := assemble(spec, sum, run, 1, 0, 0); res.CI == (stats.Interval{}) || math.IsInf(res.RelErr, 1) {
		t.Fatalf("valid weight gave no interval: %+v relerr %v", res.CI, res.RelErr)
	}

	run.Merge(&sim.SparseResult{Groups: 10, Events: []sim.GroupEvent{
		{Group: 4, LogW: math.Inf(1), DDF: sim.DDF{Time: 20, Cause: sim.CauseOpOp}},
		{Group: 7, LogW: -0.25, DDF: sim.DDF{Time: 30, Cause: sim.CauseLdOp}},
	}})
	sum.extend(run)
	got := assemble(spec, sum, run, 2, 0, 0)
	if _, err := stats.WeightedBernoulliCI(run.GroupWeights(), run.Groups, spec.Confidence); err == nil {
		t.Fatal("stats accepted an infinite weight; the test premise is wrong")
	}
	if got.CI != (stats.Interval{}) || !math.IsInf(got.RelErr, 1) {
		t.Errorf("infinite weight gave CI %+v relerr %v, want none", got.CI, got.RelErr)
	}
	if want := Summarize(spec, run); !reflect.DeepEqual(got.CI, want.CI) || !sameFloat(got.ESS, want.ESS) || got.GroupsWithDDF != 3 {
		t.Errorf("extended summary CI %+v ess %v k=%d, from scratch CI %+v ess %v k=3",
			got.CI, got.ESS, got.GroupsWithDDF, want.CI, want.ESS)
	}
}
