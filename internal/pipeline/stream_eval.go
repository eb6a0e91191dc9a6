package pipeline

import (
	"context"
	"fmt"

	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/stream"
)

// StreamResult summarizes a streamed adaptation replay: the no-adapt
// baseline, the accuracy trajectory over arriving batches, and the final
// adapted accuracy. ADATIME-style: adaptation is evaluated as a trajectory
// over the arriving stream, not a single shot.
type StreamResult struct {
	BatchSize      int              `json:"batch_size"`
	Batches        int              `json:"batches"`
	TargetBaseline float64          `json:"target_baseline"` // target accuracy before any fold
	Trajectory     []float64        `json:"trajectory"`      // target accuracy after each folded batch
	TargetAdapted  float64          `json:"target_adapted"`  // == last trajectory entry
	Adapt          model.AdaptStats `json:"adapt_stats"`     // cumulative over all folds
	Elapsed        string           `json:"elapsed,omitempty"`
}

// StreamEvaluate replays the target split as an arriving stream: the raw
// target windows are enqueued in generation order on a stream.Adapter whose
// micro-batches of batchSize windows are encoded and folded into the model
// via AdaptIncremental, measuring target accuracy after every fold. The
// whole stream is enqueued before the worker starts, so the batch
// boundaries — and therefore the trajectory and the final model — are fully
// deterministic for a fixed batch order.
//
// Like Evaluate, it mutates a.Model (the ensemble ends up adapted to the
// streamed target split).
func (a *Artifacts) StreamEvaluate(batchSize int) (*StreamResult, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("pipeline: stream batch size %d < 1", batchSize)
	}
	tgtHVs, tgtClasses := hvsAndClasses(a.Target)
	if len(tgtHVs) == 0 {
		return nil, fmt.Errorf("pipeline: no target samples to stream")
	}
	windows := a.TargetWindows
	workers := a.Config.Workers
	res := &StreamResult{
		BatchSize:      batchSize,
		TargetBaseline: evalBatch(tgtHVs, tgtClasses, a.Model.Snapshot().PredictSourceBatch, workers),
	}
	// The fold callback runs on the adapter's worker goroutine; Close joins
	// that goroutine before the trajectory is read, so no extra locking is
	// needed here.
	ad := stream.New(
		stream.Config{QueueCap: len(windows), MaxBatch: batchSize},
		func(ws [][][]float64) ([]hdc.Vector, error) {
			return a.Encoder.EncodeBatch(ws, workers)
		},
		func(hvs []hdc.Vector) (model.AdaptStats, error) {
			stats, err := a.Model.AdaptIncremental(hvs, workers)
			if err != nil {
				return stats, err
			}
			res.Trajectory = append(res.Trajectory, evalBatch(tgtHVs, tgtClasses, a.Model.Snapshot().PredictBatch, workers))
			return stats, nil
		},
	)
	if _, err := ad.Enqueue(windows); err != nil {
		return nil, fmt.Errorf("pipeline: enqueueing target stream: %w", err)
	}
	ad.Start()
	if err := ad.Close(context.Background()); err != nil {
		return nil, err
	}
	st := ad.Stats()
	if st.EncodeErrors > 0 || st.FoldErrors > 0 {
		msg := st.LastError
		if msg == "" {
			// A clean fold after the failure cleared the sticky last-error;
			// fall back to the cumulative books.
			msg = fmt.Sprintf("%d encode / %d fold errors (%d windows lost)",
				st.EncodeErrors, st.FoldErrors, st.WindowsLost)
		}
		return nil, fmt.Errorf("pipeline: stream replay failed: %s", msg)
	}
	res.Batches = int(st.BatchesFolded)
	res.Adapt = st.Adapt
	res.TargetAdapted = res.Trajectory[len(res.Trajectory)-1]
	return res, nil
}
