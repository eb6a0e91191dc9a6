package model

import (
	"math"
	"testing"

	"go-arxiv/smore/internal/hdc"
)

// fastpathEnsemble builds a small trained ensemble plus aligned queries
// for the fast-path tests and benchmarks.
func fastpathEnsemble(t testing.TB, classes int) (*Ensemble, []hdc.Vector) {
	t.Helper()
	rng := testRNG(61)
	_, samples := cluster(rng, classes, 12, testDim/3, 0)
	m, err := New(Config{Dim: testDim, Classes: classes, RetrainEpochs: 1, AdaptEpochs: 2, Confidence: 0.005, AdaptRate: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(samples); err != nil {
		t.Fatal(err)
	}
	hvs := make([]hdc.Vector, len(samples))
	for i, s := range samples {
		hvs[i] = s.HV
	}
	return m, hvs
}

func TestScoreIntoMatchesPredict(t *testing.T) {
	m, hvs := fastpathEnsemble(t, 6)
	scores := make([]float64, 6)
	s := m.Snapshot()
	for _, hv := range hvs {
		if err := s.ScoreInto(hv, scores); err != nil {
			t.Fatal(err)
		}
		if got, want := argmax(scores), s.Predict(hv); got != want {
			t.Fatalf("argmax(ScoreInto) = %d, Predict = %d", got, want)
		}
	}
	// After adaptation ScoreInto must switch to the adapted model, exactly
	// like Predict does.
	if _, err := m.AdaptBatch(hvs, 0); err != nil {
		t.Fatal(err)
	}
	s = m.Snapshot()
	for _, hv := range hvs {
		if err := s.ScoreInto(hv, scores); err != nil {
			t.Fatal(err)
		}
		if got, want := argmax(scores), s.Predict(hv); got != want {
			t.Fatalf("adapted: argmax(ScoreInto) = %d, Predict = %d", got, want)
		}
	}
}

func TestScoreIntoErrors(t *testing.T) {
	trained, _ := fastpathEnsemble(t, 4)
	s := trained.Snapshot()
	if err := s.ScoreInto(hdc.New(testDim), make([]float64, 3)); err == nil {
		t.Error("ScoreInto with a short dst did not error")
	}
	if err := s.ScoreInto(hdc.New(64), make([]float64, 4)); err == nil {
		t.Error("ScoreInto with a mismatched query dimension did not error")
	}
	scores := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	if err := s.ScoreInto(trained.domains[0].protMat.Row(0), scores); err != nil {
		t.Fatal(err)
	}
	for c, s := range scores {
		if math.IsNaN(s) {
			t.Fatalf("class %d score left NaN", c)
		}
	}
}

// TestPredictZeroAllocs pins the pooled-scratch predict paths at zero
// steady-state allocations, before and after adaptation, so the serving
// hot path cannot silently regress.
func TestPredictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	m, hvs := fastpathEnsemble(t, 5)
	q := hvs[0]
	s := m.Snapshot()
	s.Predict(q) // warm the pool
	if allocs := testing.AllocsPerRun(100, func() { s.Predict(q) }); allocs != 0 {
		t.Fatalf("source-ensemble Predict allocated %.1f times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.PredictSource(q) }); allocs != 0 {
		t.Fatalf("PredictSource allocated %.1f times per run, want 0", allocs)
	}
	if _, err := m.AdaptBatch(hvs, 0); err != nil {
		t.Fatal(err)
	}
	s = m.Snapshot()
	s.Predict(q)
	if allocs := testing.AllocsPerRun(100, func() { s.Predict(q) }); allocs != 0 {
		t.Fatalf("adapted Predict allocated %.1f times per run, want 0", allocs)
	}
}

// TestScoreIntoZeroAllocs pins ScoreInto's caller-owned-buffer contract.
func TestScoreIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	m, hvs := fastpathEnsemble(t, 5)
	q := hvs[0]
	s := m.Snapshot()
	scores := make([]float64, 5)
	if err := s.ScoreInto(q, scores); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.ScoreInto(q, scores); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ScoreInto allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkScoreInto is the contiguous similarity kernel over the full
// source ensemble (domain weighting plus per-domain class scoring).
func BenchmarkScoreInto(b *testing.B) {
	m, hvs := fastpathEnsemble(b, 8)
	q := hvs[0]
	scores := make([]float64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if err := m.Snapshot().ScoreInto(q, scores); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch is the serving-layer inference path: a batch of
// queries fanned out over the worker pool against the packed prototypes.
func BenchmarkPredictBatch(b *testing.B) {
	m, hvs := fastpathEnsemble(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		m.Snapshot().PredictBatch(hvs, 0)
	}
}
