package stream

import (
	"testing"

	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
)

// BenchmarkAdapterSteadyState measures the full enqueue → coalesce →
// encode cycle of one micro-batch through a real encoder, driving the
// worker body inline so the numbers carry no scheduler or sleep noise.
// This is the stream-path allocation floor: the batch buffer is reused
// across micro-batches and the encoder runs on pooled scratch, so the
// per-window cost is the encode itself plus one result vector.
func BenchmarkAdapterSteadyState(b *testing.B) {
	enc, err := encode.New(encode.Config{Dim: 2048, Sensors: 4, Levels: 16, NGram: 3, Min: -3, Max: 3, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	a := New(Config{QueueCap: 1024, MaxBatch: 64},
		func(windows [][][]float64) ([]hdc.Vector, error) {
			return enc.EncodeBatch(windows, 1)
		},
		func(hvs []hdc.Vector) (model.AdaptStats, error) {
			return model.AdaptStats{}, nil
		},
	)
	windows := make([][][]float64, 16)
	for i := range windows {
		w := make([][]float64, 16)
		for t := range w {
			w[t] = []float64{float64(i), float64(t), -1, 1}
		}
		windows[i] = w
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := a.Enqueue(windows, nil); err != nil {
			b.Fatal(err)
		}
		if !a.runOnce(false) {
			b.Fatal("worker found an empty queue after a successful enqueue")
		}
	}
}
