package campaign

import (
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/sim"
)

// TestFingerprintStability pins the fingerprint of a fully specified
// campaign. The digest is shared infrastructure: checkpoints embed it,
// the raidreld result cache keys on it, and shard manifests compare it —
// so a silent change would orphan every on-disk checkpoint and split the
// cache. If this test fails, either revert the change to Fingerprint or
// bump CheckpointVersion and migrate deliberately.
//
// A nil engine names the engine it resolves to (sim.DefaultEngine, here the
// block engine); the explicit event-engine digest is the one every nil-engine
// checkpoint carried before that rule, and resumes still accept it.
func TestFingerprintStability(t *testing.T) {
	spec := Spec{
		Config: sim.Config{
			Drives:     8,
			Redundancy: 1,
			Mission:    87600,
			Trans: sim.Transitions{
				TTOp: dist.MustExponential(2.5e-5),
				TTR:  dist.MustExponential(1e-1),
			},
		},
		Seed: 42,
	}
	for _, c := range []struct {
		engine sim.Engine
		want   string
	}{
		{sim.EventEngine{}, "41bd9c5d9dffb37f"},
		{nil, "4baaf4bc1d7bbbea"},
		{sim.BlockEngine{}, "4baaf4bc1d7bbbea"},
	} {
		spec.Engine = c.engine
		if got := spec.Fingerprint(); got != c.want {
			t.Errorf("engine %T: fingerprint changed: got %s, want %s (cache keys and checkpoints would be orphaned)", c.engine, got, c.want)
		}
	}

	// The paper's Table 2 base case, latent defects and scrubbing on: the
	// configuration behind every real checkpoint and cache key.
	base := Spec{
		Config: sim.Config{
			Drives:     8,
			Redundancy: 1,
			Mission:    87600,
			Trans: sim.Transitions{
				TTOp:    dist.MustWeibull(1.12, 461386, 0),
				TTR:     dist.MustWeibull(2, 12, 6),
				TTLd:    dist.MustWeibull(1, 9259, 0),
				TTScrub: dist.MustWeibull(3, 168, 6),
			},
		},
		Seed: 42,
	}
	for _, c := range []struct {
		engine sim.Engine
		want   string
	}{
		{sim.EventEngine{}, "c211c3e2d0e4463f"},
		{nil, "9d83ec942951d67e"},
		{sim.BlockEngine{}, "9d83ec942951d67e"},
	} {
		base.Engine = c.engine
		if got := base.Fingerprint(); got != c.want {
			t.Errorf("base case, engine %T: fingerprint changed: got %s, want %s (cache keys and checkpoints would be orphaned)", c.engine, got, c.want)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Spec{Config: fastConfig(), Seed: 1}
	fp := base.Fingerprint()

	seed := base
	seed.Seed = 2
	if seed.Fingerprint() == fp {
		t.Error("seed change did not change the fingerprint")
	}

	drives := base
	drives.Config.Drives = 9
	if drives.Fingerprint() == fp {
		t.Error("config change did not change the fingerprint")
	}

	engine := base
	engine.Engine = sim.EventEngine{} // base resolves to the block engine
	if engine.Fingerprint() == fp {
		t.Error("engine change did not change the fingerprint")
	}

	// Shard offsets are part of the identity (a shard checkpoint must not
	// resume into another shard), but offset zero must reproduce the
	// pre-sharding fingerprint so existing checkpoints stay resumable.
	shard := base
	shard.Offset = 500
	if shard.Fingerprint() == fp {
		t.Error("shard offset did not change the fingerprint")
	}
	zero := base
	zero.Offset = 0
	if zero.Fingerprint() != fp {
		t.Error("offset 0 perturbed the fingerprint (legacy checkpoints orphaned)")
	}

	// Stopping knobs are deliberately NOT identity: the same simulated
	// stream at a different budget shares its checkpoints.
	budget := base
	budget.MaxIterations = 12345
	budget.TargetRelErr = 0.05
	if budget.Fingerprint() != fp {
		t.Error("stopping knobs perturbed the fingerprint")
	}

	// A flat (nil or component-free) topology must not perturb the
	// fingerprint — it is the same simulated model, and every checkpoint
	// written before the component layer existed must stay resumable. A
	// coupled topology is identity, and different trees differ.
	flat := base
	flat.Config.Topology = &sim.Topology{}
	if flat.Fingerprint() != fp {
		t.Error("flat topology perturbed the fingerprint (legacy checkpoints orphaned)")
	}
	coupled := base
	coupled.Config.Topology = &sim.Topology{Components: []sim.Component{{
		Name: "enc", Drives: []int{0, 1},
		TTOp: dist.MustExponential(1e-5), TTR: dist.MustExponential(1e-3),
	}}}
	cfp := coupled.Fingerprint()
	if cfp == fp {
		t.Error("coupled topology did not change the fingerprint")
	}
	other := base
	other.Config.Topology = &sim.Topology{Components: []sim.Component{{
		Name: "enc", Drives: []int{0, 1},
		TTOp: dist.MustExponential(2e-5), TTR: dist.MustExponential(1e-3),
	}}}
	if other.Fingerprint() == cfp {
		t.Error("different component rates share a fingerprint")
	}
}
