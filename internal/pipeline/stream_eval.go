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
	workers := a.Config.Workers
	res := &StreamResult{
		BatchSize:      batchSize,
		TargetBaseline: evalBatch(tgtHVs, tgtClasses, a.Model.Snapshot().PredictSourceBatch, workers),
	}
	st, err := a.replay(stream.Config{MaxBatch: batchSize}, a.TargetWindows, func() error {
		res.Trajectory = append(res.Trajectory, evalBatch(tgtHVs, tgtClasses, a.Model.Snapshot().PredictBatch, workers))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Batches = int(st.BatchesFolded)
	res.Adapt = st.Adapt
	res.TargetAdapted = res.Trajectory[len(res.Trajectory)-1]
	return res, nil
}

// replay streams windows through a stream.Adapter built from cfg, with a
// queue that holds them all: each micro-batch is encoded with EncodeBatch
// and folded into a.Model with AdaptIncremental, and afterFold runs after
// every successful fold; its error fails that fold. The whole stream is
// enqueued before the worker starts, so the batch boundaries are fixed by
// cfg.MaxBatch alone. afterFold runs on the adapter's worker goroutine,
// which Close joins before replay returns, so the state it writes needs no
// locking. Any encode or fold failure fails the replay.
func (a *Artifacts) replay(cfg stream.Config, windows [][][]float64, afterFold func() error) (stream.Stats, error) {
	workers := a.Config.Workers
	cfg.QueueCap = len(windows)
	ad := stream.New(cfg,
		func(ws [][][]float64) ([]hdc.Vector, error) {
			return a.Encoder.EncodeBatch(ws, workers)
		},
		func(hvs []hdc.Vector) (model.AdaptStats, error) {
			stats, err := a.Model.AdaptIncremental(hvs, workers)
			if err != nil {
				return stats, err
			}
			return stats, afterFold()
		},
	)
	if _, err := ad.Enqueue(windows); err != nil {
		return stream.Stats{}, fmt.Errorf("pipeline: enqueueing stream: %w", err)
	}
	ad.Start()
	if err := ad.Close(context.Background()); err != nil {
		return stream.Stats{}, err
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
		return stream.Stats{}, fmt.Errorf("pipeline: stream replay failed: %s", msg)
	}
	return st, nil
}
