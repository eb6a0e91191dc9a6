package pipeline

import (
	"testing"

	"go-arxiv/smore/internal/stream"
)

// TestStreamEvaluateDriftSpawnsAndBeatsFrozen is the acceptance test for the
// continual-adaptation claim: over a two-shift replay the spawn policy must
// open a second target on the second shift and end with higher second-shift
// accuracy than the frozen single-target model.
func TestStreamEvaluateDriftSpawnsAndBeatsFrozen(t *testing.T) {
	art, err := Train(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := art.StreamEvaluateDrift(8, DriftConfig{Policy: stream.DriftPolicy{Spawn: true, Threshold: 0.04}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("phaseA final=%.3f | frozen-on-B=%.3f finalB=%.3f finalA=%.3f spawned=%d targets=%+v",
		res.PhaseA.TargetAdapted, res.FrozenBaselineB, res.FinalB, res.FinalA,
		res.TargetsSpawned, res.Targets)
	if !res.SpawnedSecondTarget {
		t.Fatal("spawn policy never opened a second target over the second shift")
	}
	if len(res.Targets) != 2 {
		t.Fatalf("ended with %d targets, want 2: %+v", len(res.Targets), res.Targets)
	}
	if !res.BeatsBaseline {
		t.Fatalf("continual adaptation (%.3f) did not beat the frozen single-target baseline (%.3f)",
			res.FinalB, res.FrozenBaselineB)
	}
	if len(res.TrajectoryB) != res.BatchesB || len(res.TrajectoryA) != res.BatchesB {
		t.Fatalf("trajectories have %d/%d points, want %d (one per fold)",
			len(res.TrajectoryB), len(res.TrajectoryA), res.BatchesB)
	}
	if res.DriftPolicy != "spawn" {
		t.Fatalf("DriftPolicy = %q, want spawn", res.DriftPolicy)
	}
}

// TestStreamEvaluateDriftNonePolicy pins the control arm: without a drift
// policy the replay folds the second shift into the lone target and never
// spawns, and the phase-A semantics are exactly StreamEvaluate's.
func TestStreamEvaluateDriftNonePolicy(t *testing.T) {
	art, err := Train(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := art.StreamEvaluateDrift(8, DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TargetsSpawned != 0 || res.SpawnedSecondTarget {
		t.Fatalf("none policy spawned: %+v", res)
	}
	if len(res.Targets) != 1 {
		t.Fatalf("none policy ended with %d targets, want the single implicit one", len(res.Targets))
	}
	ref, err := Train(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.StreamEvaluate(8)
	if err != nil {
		t.Fatal(err)
	}
	if res.PhaseA.TargetAdapted != want.TargetAdapted {
		t.Fatalf("phase A diverged from StreamEvaluate: %.4f vs %.4f",
			res.PhaseA.TargetAdapted, want.TargetAdapted)
	}
}
