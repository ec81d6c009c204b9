package cosim

import (
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/raid"
	"raidrel/internal/sim"
)

// busyConfig produces frequent failures and defects so verdict agreement
// gets exercised hard in few iterations.
func busyConfig() Config {
	return Config{
		Sim: sim.Config{
			Drives:     8,
			Redundancy: 1,
			Mission:    30000,
			Trans: sim.Transitions{
				TTOp: dist.MustExponential(2e-5), // MTBF 50,000 h
				TTR:  dist.MustWeibull(2, 24, 12),
				// Defect heat balances two needs: frequent enough that LdOp
				// DDFs occur, rare enough that most runs avoid the
				// documented divergence corners (defects inside rebuild
				// windows).
				TTLd:    dist.MustExponential(5e-5),
				TTScrub: dist.MustWeibull(3, 500, 6),
			},
		},
		Level:      raid.RAID5,
		StripeSets: 40,
		BlockSize:  32,
	}
}

func TestReplayValidation(t *testing.T) {
	cfg := busyConfig()
	cfg.Sim.Drives = 2
	if _, err := Replay(cfg, 1); err == nil {
		t.Error("2-drive replay accepted")
	}
	cfg = busyConfig()
	cfg.Level = raid.RAID6 // redundancy mismatch with Sim.Redundancy 1
	if _, err := Replay(cfg, 1); err == nil {
		t.Error("redundancy mismatch accepted")
	}
	cfg = busyConfig()
	cfg.StripeSets = 0
	if _, err := Replay(cfg, 1); err == nil {
		t.Error("zero stripe sets accepted")
	}
}

// The headline integration result: over many chronologies, every model
// DDF corresponds to a physical loss and vice versa, outside the
// documented divergence corners.
func TestModelMatchesPhysicsRAID5(t *testing.T) {
	cfg := busyConfig()
	agreed, corners, modelDDFs, physLosses := 0, 0, 0, 0
	const runs = 400
	for i := 0; i < runs; i++ {
		res, err := Replay(cfg, uint64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		modelDDFs += len(res.ModelDDFs)
		physLosses += len(res.PhysicalLosses)
		if res.CornerEvents > 0 || res.RepairAnomalies > 0 {
			corners++
			continue
		}
		if !res.Agrees() {
			t.Fatalf("run %d: model %d DDFs at %v, physical %d losses %v",
				i, len(res.ModelDDFs), res.ModelDDFs, len(res.PhysicalLosses), res.PhysicalLosses)
		}
		agreed++
	}
	if modelDDFs == 0 {
		t.Fatal("no DDFs generated; config too mild")
	}
	t.Logf("agreed=%d corners=%d modelDDFs=%d physicalLosses=%d",
		agreed, corners, modelDDFs, physLosses)
	// The seeds are fixed, so the split is exact; EXPERIMENTS.md and
	// DESIGN.md cite it as 353 of 400.
	if agreed != 353 || corners != 47 {
		t.Fatalf("agreed=%d corners=%d, want 353 and 47", agreed, corners)
	}
}

// Row-diagonal-parity arrays replayed against a redundancy-2 model.
func TestModelMatchesPhysicsRAID6(t *testing.T) {
	cfg := busyConfig()
	cfg.Level = raid.RAID6
	cfg.Sim.Redundancy = 2
	// Hotter rates so triple coincidences actually occur sometimes.
	cfg.Sim.Trans.TTOp = dist.MustExponential(1e-4)
	cfg.Sim.Trans.TTLd = dist.MustExponential(1e-3)
	cfg.Sim.Trans.TTScrub = dist.MustWeibull(3, 2000, 6)
	for i := 0; i < 60; i++ {
		res, err := Replay(cfg, uint64(2000+i))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agrees() {
			t.Fatalf("run %d: model %v, physical %v", i, res.ModelDDFs, res.PhysicalLosses)
		}
	}
}

// With latent defects disabled, the only possible losses are overlapping
// whole-disk failures, and model/physics must agree exactly on every run
// (no corners exist without defects).
func TestPureOpOpCorrespondence(t *testing.T) {
	cfg := busyConfig()
	cfg.Sim.Trans.TTLd = nil
	cfg.Sim.Trans.TTScrub = nil
	cfg.Sim.Trans.TTOp = dist.MustExponential(1e-4)
	cfg.Sim.Trans.TTR = dist.MustExponential(1e-3) // long rebuilds: overlaps happen
	total := 0
	for i := 0; i < 200; i++ {
		res, err := Replay(cfg, uint64(3000+i))
		if err != nil {
			t.Fatal(err)
		}
		if res.CornerEvents != 0 {
			t.Fatalf("run %d: corners without defects", i)
		}
		if !res.Agrees() {
			t.Fatalf("run %d: model %v vs physical %v", i, res.ModelDDFs, res.PhysicalLosses)
		}
		for _, l := range res.PhysicalLosses {
			if !l.DoubleFailure {
				t.Fatalf("run %d: defect-free chronology produced a non-double loss", i)
			}
		}
		total += len(res.PhysicalLosses)
	}
	if total == 0 {
		t.Fatal("no overlapping failures generated; config too mild")
	}
}

func TestCheckHelper(t *testing.T) {
	cfg := busyConfig()
	cfg.Sim.Mission = 20000
	if err := Check(cfg, 5000, 25); err != nil {
		t.Fatal(err)
	}
}

// Scrub bookkeeping: repaired defects must not register as losses later.
func TestScrubPreventsPhysicalLoss(t *testing.T) {
	cfg := busyConfig()
	// Very fast scrub: defects barely live; losses should be rare compared
	// to the no-scrub replay.
	cfg.Sim.Trans.TTScrub = dist.MustWeibull(3, 24, 1)
	fast := 0
	for i := 0; i < 80; i++ {
		res, err := Replay(cfg, uint64(4000+i))
		if err != nil {
			t.Fatal(err)
		}
		fast += len(res.PhysicalLosses)
	}
	cfg.Sim.Trans.TTScrub = nil
	slow := 0
	for i := 0; i < 80; i++ {
		res, err := Replay(cfg, uint64(4000+i))
		if err != nil {
			t.Fatal(err)
		}
		slow += len(res.PhysicalLosses)
	}
	if fast*2 >= slow {
		t.Errorf("fast scrub losses %d not << no-scrub losses %d", fast, slow)
	}
}
