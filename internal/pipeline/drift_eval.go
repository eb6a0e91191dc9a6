package pipeline

import (
	"bytes"
	"context"
	"fmt"

	"go-arxiv/smore/internal/data"
	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/stream"
)

// DriftConfig parameterizes the second phase of a two-shift drift replay.
type DriftConfig struct {
	// Policy decides when the replay spawns a fresh target; the zero value
	// is "none" (the replay then measures how a single target degrades).
	Policy stream.DriftPolicy
	// MaxTargets bounds the live target set under a retiring policy;
	// <= 0 means stream.DefaultMaxTargets.
	MaxTargets int
	// Shift distorts the second-phase domain. The zero value picks a harsh
	// default far off the first target distribution.
	Shift data.Shift
	// Seed seeds the second-phase dataset; 0 means the run's Data.Seed.
	// The class signatures derive from this seed, so any other value
	// changes the classes themselves, not just the covariate shift.
	Seed uint64
}

// DefaultDriftShift is the second-phase distortion DriftConfig falls back
// to: far enough from DefaultDomains' target in hypervector space that a
// similarity-trajectory detector with a threshold around 0.04 fires, but
// with enough class signal left that a freshly spawned target can adapt to
// it. (Harsher shifts trip the detector sooner but destroy the class
// structure pseudo-labeling bootstraps from, leaving every arm at chance.)
func DefaultDriftShift() data.Shift {
	return data.Shift{Name: "shift-2", AmpScale: 0.85, Offset: 0.5, Phase: 0.6, NoiseStd: 0.1}
}

// DetectorDriftShift is a much harsher distortion that reliably trips the
// similarity detector at the default 0.1 threshold, at the cost of most of
// the class signal. Use it to exercise the spawn/rollback machinery itself
// (the e2e script streams it at the serving layer); use DefaultDriftShift
// when post-spawn adaptation quality matters.
func DetectorDriftShift() data.Shift {
	return data.Shift{Name: "shift-harsh", AmpScale: 0.2, Offset: 2.2, Phase: 1.6, NoiseStd: 0.4}
}

// DriftSplit generates the second-shift sample split a drift replay streams
// after the target domain: same class signatures as the run's dataset
// (unless dcfg.Seed overrides), distorted by dcfg.Shift. Exposed so the
// CLI's -dump-drift can hand scripts the same kind of windows
// StreamEvaluateDrift streams.
func (a *Artifacts) DriftSplit(dcfg DriftConfig) ([]data.Sample, error) {
	if dcfg.Shift == (data.Shift{}) {
		dcfg.Shift = DefaultDriftShift()
	}
	if dcfg.Seed == 0 {
		dcfg.Seed = a.Config.Data.Seed
	}
	bcfg := a.Config.Data
	bcfg.Seed = dcfg.Seed
	bcfg.Domains = []data.Shift{dcfg.Shift}
	ds, err := data.Generate(bcfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: generating drift phase: %w", err)
	}
	return ds.Domains[0], nil
}

// DriftResult summarizes a two-shift streamed replay: phase A adapts to the
// configured target domain exactly like StreamEvaluate, then phase B streams
// a second, differently-shifted domain through a drift-policy-wired adapter.
type DriftResult struct {
	PhaseA *StreamResult `json:"phase_a"`

	ShiftB   string `json:"shift_b"`
	BatchesB int    `json:"batches_b"`
	// FrozenBaselineB scores the frozen post-phase-A model on the phase-B
	// split: what serving accuracy looks like if adaptation stops at the
	// first target. The drift policy has to beat this.
	FrozenBaselineB float64 `json:"frozen_baseline_b"`
	// TrajectoryB is phase-B accuracy after each phase-B fold.
	TrajectoryB []float64 `json:"trajectory_b"`
	// TrajectoryA tracks phase-A (first target) accuracy alongside, one
	// entry per phase-B fold — the catastrophic-forgetting axis.
	TrajectoryA []float64 `json:"trajectory_a"`
	FinalB      float64   `json:"final_b"`
	FinalA      float64   `json:"final_a"`

	DriftPolicy         string             `json:"drift_policy"`
	TargetsSpawned      int64              `json:"targets_spawned"`
	TargetsRetired      int64              `json:"targets_retired"`
	SpawnedSecondTarget bool               `json:"spawned_second_target"`
	BeatsBaseline       bool               `json:"beats_baseline"`
	Targets             []model.TargetInfo `json:"targets"`
	Elapsed             string             `json:"elapsed,omitempty"`
}

// StreamEvaluateDrift replays a synthetic two-shift sequence as ONE
// continuous stream: the target split arrives first (phase A, building the
// first target and its similarity trajectory — identical fold-for-fold to
// StreamEvaluate), then a second, differently-shifted domain arrives (phase
// B) on the same drift-policy-wired adapter, so the detector sees the shift
// as a similarity cliff against the phase-A trajectory. The model is frozen
// through its codec at the phase boundary and scored on the phase-B split,
// so the result reports whether continual adaptation beat stopping after
// the first shift.
//
// Like StreamEvaluate, it mutates a.Model.
func (a *Artifacts) StreamEvaluateDrift(batchSize int, dcfg DriftConfig) (*DriftResult, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("pipeline: stream batch size %d < 1", batchSize)
	}
	if dcfg.Shift == (data.Shift{}) {
		dcfg.Shift = DefaultDriftShift()
	}
	if dcfg.Seed == 0 {
		dcfg.Seed = a.Config.Data.Seed
	}

	bSamples, err := a.DriftSplit(dcfg)
	if err != nil {
		return nil, err
	}
	bWindows := data.Windows(bSamples)
	workers := a.Config.Workers
	bHVs := make([]hdc.Vector, len(bSamples))
	bClasses := make([]int, len(bSamples))
	{
		hvs, err := a.Encoder.EncodeBatch(bWindows, workers)
		if err != nil {
			return nil, fmt.Errorf("pipeline: encoding drift phase: %w", err)
		}
		for i, s := range bSamples {
			bHVs[i], bClasses[i] = hvs[i], s.Class
		}
	}
	aHVs, aClasses := hvsAndClasses(a.Target)
	if len(aHVs) == 0 {
		return nil, fmt.Errorf("pipeline: no target samples to stream")
	}
	aWindows := a.TargetWindows
	phaseABatches := (len(aWindows) + batchSize - 1) / batchSize

	res := &DriftResult{
		PhaseA: &StreamResult{
			BatchSize:      batchSize,
			Batches:        phaseABatches,
			TargetBaseline: evalBatch(aHVs, aClasses, a.Model.Snapshot().PredictSourceBatch, workers),
		},
		ShiftB:      dcfg.Shift.Name,
		DriftPolicy: dcfg.Policy.Name(),
	}

	// The fold callback runs on the adapter's single worker goroutine and
	// Close joins it, so the fold counter, the trajectories, and the
	// phase-boundary freeze need no locking.
	folds := 0
	var frozen *model.Ensemble
	ad := stream.New(
		stream.Config{
			QueueCap: len(aWindows) + len(bWindows), MaxBatch: batchSize,
			Policy: dcfg.Policy, MaxTargets: dcfg.MaxTargets,
			// The replay owns the model exclusively, so the closures need no
			// locking beyond what the Ensemble does itself.
			Sim: a.Model.BatchSimilarity,
			Spawn: func(maxTargets int, retire bool) (string, string, error) {
				return a.Model.SpawnTarget("", maxTargets, retire)
			},
		},
		func(ws [][][]float64) ([]hdc.Vector, error) {
			return a.Encoder.EncodeBatch(ws, workers)
		},
		func(hvs []hdc.Vector) (model.AdaptStats, error) {
			stats, err := a.Model.AdaptIncremental(hvs, workers)
			if err != nil {
				return stats, err
			}
			predict := a.Model.Snapshot().PredictBatch
			if folds < phaseABatches {
				res.PhaseA.Trajectory = append(res.PhaseA.Trajectory, evalBatch(aHVs, aClasses, predict, workers))
			} else {
				res.TrajectoryB = append(res.TrajectoryB, evalBatch(bHVs, bClasses, predict, workers))
				res.TrajectoryA = append(res.TrajectoryA, evalBatch(aHVs, aClasses, predict, workers))
			}
			folds++
			// Freeze the post-phase-A model through its own codec right
			// after the last phase-A fold — before the drift check of the
			// first phase-B batch can spawn — so the frozen ensemble is the
			// exact single-target state the policy arm is compared against.
			if folds == phaseABatches {
				var buf bytes.Buffer
				if _, err := a.Model.WriteTo(&buf); err != nil {
					return stats, fmt.Errorf("freezing phase-A model: %w", err)
				}
				frozen, err = model.Decode(&buf)
				if err != nil {
					return stats, fmt.Errorf("freezing phase-A model: %w", err)
				}
			}
			return stats, nil
		},
	)
	// Both phases are enqueued before the worker starts, so the batch
	// boundaries — and the fold at which the shift arrives — are fully
	// deterministic. Windows from the two phases never share a micro-batch:
	// phase A's window count is a multiple-or-remainder split that ends at
	// the queue boundary, and the worker folds at most batchSize at a time
	// starting from position 0, so phase B starts a fresh batch only when
	// phase A's count is a multiple of batchSize.
	if len(aWindows)%batchSize != 0 {
		return nil, fmt.Errorf("pipeline: phase A window count %d is not a multiple of batch size %d (the phase boundary would share a fold)", len(aWindows), batchSize)
	}
	if _, err := ad.Enqueue(aWindows); err != nil {
		return nil, fmt.Errorf("pipeline: enqueueing phase A: %w", err)
	}
	if _, err := ad.Enqueue(bWindows); err != nil {
		return nil, fmt.Errorf("pipeline: enqueueing phase B: %w", err)
	}
	ad.Start()
	if err := ad.Close(context.Background()); err != nil {
		return nil, err
	}
	st := ad.Stats()
	if st.EncodeErrors > 0 || st.FoldErrors > 0 {
		msg := st.LastError
		if msg == "" {
			msg = fmt.Sprintf("%d encode / %d fold errors (%d windows lost)",
				st.EncodeErrors, st.FoldErrors, st.WindowsLost)
		}
		return nil, fmt.Errorf("pipeline: drift replay failed: %s", msg)
	}
	if len(res.PhaseA.Trajectory) == 0 || len(res.TrajectoryB) == 0 || frozen == nil {
		return nil, fmt.Errorf("pipeline: drift replay folded %d/%d phase batches", len(res.PhaseA.Trajectory), len(res.TrajectoryB))
	}
	res.PhaseA.TargetAdapted = res.PhaseA.Trajectory[len(res.PhaseA.Trajectory)-1]
	res.FrozenBaselineB = evalBatch(bHVs, bClasses, frozen.Snapshot().PredictBatch, workers)
	res.BatchesB = int(st.BatchesFolded) - phaseABatches
	res.TargetsSpawned = st.TargetsSpawned
	res.TargetsRetired = st.TargetsRetired
	res.SpawnedSecondTarget = st.TargetsSpawned > 0
	res.Targets = a.Model.Snapshot().Targets()
	res.FinalB = res.TrajectoryB[len(res.TrajectoryB)-1]
	res.FinalA = res.TrajectoryA[len(res.TrajectoryA)-1]
	res.BeatsBaseline = res.FinalB > res.FrozenBaselineB
	return res, nil
}
