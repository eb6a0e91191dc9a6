package model

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"go-arxiv/smore/internal/hdc"
)

const testDim = 2048

func testRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x30de1))
}

func testModelConfig() Config {
	return Config{
		Dim: testDim, Classes: 4,
		RetrainEpochs: 2, AdaptEpochs: 5,
		Confidence: 0.005, AdaptRate: 2,
	}
}

// flip returns v with n distinct random bits flipped.
func flip(rng *rand.Rand, v hdc.Vector, n int) hdc.Vector {
	out := v.Clone()
	for _, i := range rng.Perm(v.Dim())[:n] {
		out.FlipBit(i)
	}
	return out
}

// cluster generates per-class prototypes and noisy samples around them.
func cluster(rng *rand.Rand, classes, perClass, noiseBits, domain int) ([]hdc.Vector, []Sample) {
	protos := make([]hdc.Vector, classes)
	for c := range protos {
		protos[c] = hdc.Random(rng, testDim)
	}
	var samples []Sample
	for c := range classes {
		for range perClass {
			samples = append(samples, Sample{
				HV: flip(rng, protos[c], noiseBits), Class: c, Domain: domain,
			})
		}
	}
	return protos, samples
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(c *Config) {}, true},
		{"bad dim", func(c *Config) { c.Dim = 7 }, false},
		{"one class", func(c *Config) { c.Classes = 1 }, false},
		{"negative retrain", func(c *Config) { c.RetrainEpochs = -1 }, false},
		{"zero adapt epochs", func(c *Config) { c.AdaptEpochs = 0 }, false},
		{"confidence over 1", func(c *Config) { c.Confidence = 1.5 }, false},
		{"nan confidence", func(c *Config) { c.Confidence = math.NaN() }, false},
		{"zero rate", func(c *Config) { c.AdaptRate = 0 }, false},
		{"nan rate", func(c *Config) { c.AdaptRate = math.NaN() }, false},
		{"inf rate", func(c *Config) { c.AdaptRate = math.Inf(1) }, false},
		{"huge rate", func(c *Config) { c.AdaptRate = 2e7 }, false},
		{"sub-resolution rate", func(c *Config) { c.AdaptRate = 0.001 }, false},
		{"bad topfrac", func(c *Config) { c.TopFrac = 1.5 }, false},
		{"nan topfrac", func(c *Config) { c.TopFrac = math.NaN() }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testModelConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestTrainPredictSeparableClusters(t *testing.T) {
	rng := testRNG(1)
	_, samples := cluster(rng, 4, 20, testDim/3, 0)
	m, err := New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(samples); err != nil {
		t.Fatal(err)
	}
	hvs := make([]hdc.Vector, len(samples))
	labels := make([]int, len(samples))
	for i, s := range samples {
		hvs[i], labels[i] = s.HV, s.Class
	}
	hits := 0
	for i, p := range m.Snapshot().PredictBatch(hvs, 0) {
		if p == labels[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(len(hvs)); acc < 0.95 {
		t.Fatalf("training accuracy %.3f on separable clusters, want >= 0.95", acc)
	}
	// Fresh samples from the same clusters must also classify correctly.
	protos, _ := cluster(testRNG(1), 4, 1, 0, 0) // same RNG stream ⇒ same prototypes
	for c, p := range protos {
		if got := m.Snapshot().Predict(flip(rng, p, testDim/4)); got != c {
			t.Fatalf("fresh sample of class %d predicted as %d", c, got)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	m, err := New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(nil); err == nil {
		t.Error("Train accepted an empty sample set")
	}
	bad := []Sample{{HV: hdc.New(testDim), Class: 99, Domain: 0}}
	if err := m.Train(bad); err == nil {
		t.Error("Train accepted an out-of-range class")
	}
	if _, err := m.AdaptBatch([]hdc.Vector{hdc.New(testDim)}, 0); err == nil {
		t.Error("Adapt before Train did not error")
	}
}

// TestAdaptErrorClassification pins the typed-error split the serving layer
// maps to HTTP statuses: untrained state is ErrNotTrained (409), bad inputs
// are ErrInvalidTargets (400), and the two are disjoint.
func TestAdaptErrorClassification(t *testing.T) {
	m, err := New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.AdaptBatch([]hdc.Vector{hdc.New(testDim)}, 0)
	if !errors.Is(err, ErrNotTrained) {
		t.Errorf("Adapt before Train error = %v, want ErrNotTrained", err)
	}
	if errors.Is(err, ErrInvalidTargets) {
		t.Errorf("Adapt before Train error %v must not classify as ErrInvalidTargets", err)
	}

	rng := testRNG(3)
	_, samples := cluster(rng, 4, 8, testDim/4, 0)
	if err := m.Train(samples); err != nil {
		t.Fatal(err)
	}
	_, err = m.AdaptBatch(nil, 0)
	if !errors.Is(err, ErrInvalidTargets) {
		t.Errorf("empty-target Adapt error = %v, want ErrInvalidTargets", err)
	}
	_, err = m.AdaptIncremental([]hdc.Vector{hdc.New(testDim * 2)}, 1)
	if !errors.Is(err, ErrInvalidTargets) {
		t.Errorf("dimension-mismatch Adapt error = %v, want ErrInvalidTargets", err)
	}
	if errors.Is(err, ErrNotTrained) {
		t.Errorf("dimension-mismatch error %v must not classify as ErrNotTrained", err)
	}
	// Valid targets still adapt after the rejected calls.
	if _, err := m.AdaptIncremental([]hdc.Vector{samples[0].HV}, 1); err != nil {
		t.Errorf("valid adapt after rejected calls: %v", err)
	}
}

func TestMultiDomainEnsemble(t *testing.T) {
	rng := testRNG(2)
	protos, samples := cluster(rng, 4, 15, testDim/3, 0)
	// Second source domain: same classes, consistently distorted by a
	// fixed domain mask on top of per-sample noise.
	mask := rng.Perm(testDim)[:testDim/5]
	for c := range 4 {
		for range 15 {
			hv := flip(rng, protos[c], testDim/3)
			for _, b := range mask {
				hv.FlipBit(b)
			}
			samples = append(samples, Sample{HV: hv, Class: c, Domain: 1})
		}
	}
	m, err := New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(samples); err != nil {
		t.Fatal(err)
	}
	// Queries from each domain must classify correctly through the
	// similarity-weighted ensemble.
	for c, p := range protos {
		if got := m.Snapshot().Predict(flip(rng, p, testDim/4)); got != c {
			t.Fatalf("domain-0 query of class %d predicted as %d", c, got)
		}
	}
}

func TestAdaptMechanics(t *testing.T) {
	rng := testRNG(3)
	protos, samples := cluster(rng, 4, 20, testDim/3, 0)
	m, err := New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(samples); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().Adapted() {
		t.Fatal("Adapted() true before Adapt")
	}
	if _, err := m.AdaptBatch(nil, 0); err == nil {
		t.Error("Adapt accepted an empty target set")
	}
	var targets []hdc.Vector
	for c := range 4 {
		for range 10 {
			targets = append(targets, flip(rng, protos[c], testDim/3))
		}
	}
	stats, err := m.AdaptBatch(targets, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Snapshot().Adapted() {
		t.Fatal("Adapted() false after Adapt")
	}
	if stats.PseudoLabels == 0 {
		t.Fatal("adaptation applied no pseudo-labels on well-separated targets")
	}
	// On an unshifted target the adapted model must retain the class
	// structure.
	for c, p := range protos {
		if got := m.Snapshot().Predict(flip(rng, p, testDim/4)); got != c {
			t.Fatalf("adapted model predicts class %d as %d", c, got)
		}
	}
}

// TestAdaptBatchDeterministicAcrossWorkers is the batch-API determinism
// contract: two identically trained ensembles adapted with worker counts 1
// and N must end with byte-identical target prototypes and equal stats.
// Run under -race in CI.
// TestAdaptStopsAtFirstEmptyEpoch pins adapt's early exit. An epoch that
// accepts no pseudo-label leaves the prototypes as they were, so every later
// epoch would rescore the same targets against the same gate: the loop stops
// after it. A run whose every epoch accepts labels runs them all.
func TestAdaptStopsAtFirstEmptyEpoch(t *testing.T) {
	run := func(confidence float64) (AdaptStats, int) {
		rng := testRNG(31)
		protos, samples := cluster(rng, 4, 20, testDim/3, 0)
		cfg := testModelConfig()
		cfg.AdaptEpochs = 10
		cfg.Confidence = confidence
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Train(samples); err != nil {
			t.Fatal(err)
		}
		var targets []hdc.Vector
		for c := range 4 {
			for range 15 {
				targets = append(targets, flip(rng, protos[c], testDim/3))
			}
		}
		stats, err := m.AdaptBatch(targets, 0)
		if err != nil {
			t.Fatal(err)
		}
		return stats, len(targets)
	}
	if got, n := run(1); got != (AdaptStats{Epochs: 1, Skipped: n}) {
		t.Fatalf("unreachable confidence: stats %+v, want 1 epoch, 0 pseudo-labels, %d skipped", got, n)
	}
	if got, _ := run(testModelConfig().Confidence); got.Epochs != 10 {
		t.Fatalf("test confidence: stats %+v, want all 10 epochs", got)
	}
}

func TestAdaptBatchDeterministicAcrossWorkers(t *testing.T) {
	build := func() (*Ensemble, []hdc.Vector) {
		rng := testRNG(21)
		protos, samples := cluster(rng, 4, 20, testDim/3, 0)
		m, err := New(testModelConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Train(samples); err != nil {
			t.Fatal(err)
		}
		var targets []hdc.Vector
		for c := range 4 {
			for range 15 {
				targets = append(targets, flip(rng, protos[c], testDim/3))
			}
		}
		return m, targets
	}

	ref, targets := build()
	refStats, err := ref.AdaptBatch(targets, 1)
	if err != nil {
		t.Fatal(err)
	}
	refProt := ref.Snapshot().AdaptedPrototypes()
	for _, workers := range []int{0, 3, 16} {
		m, targets := build()
		stats, err := m.AdaptBatch(targets, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats != refStats {
			t.Fatalf("workers=%d: stats %+v differ from workers=1 %+v", workers, stats, refStats)
		}
		prot := m.Snapshot().AdaptedPrototypes()
		if len(prot) != len(refProt) {
			t.Fatalf("workers=%d: %d prototypes, want %d", workers, len(prot), len(refProt))
		}
		for c := range prot {
			a, err1 := prot[c].MarshalBinary()
			b, err2 := refProt[c].MarshalBinary()
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("workers=%d: class %d prototype not byte-identical to workers=1", workers, c)
			}
		}
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := testRNG(22)
	_, samples := cluster(rng, 4, 10, testDim/3, 0)
	m, err := New(testModelConfig())
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
	snap := m.Snapshot()
	for _, workers := range []int{1, 4} {
		for i, pred := range snap.PredictBatch(hvs, workers) {
			if want := snap.Predict(hvs[i]); pred != want {
				t.Fatalf("workers=%d: PredictBatch[%d] = %d, Predict = %d", workers, i, pred, want)
			}
		}
		for i, pred := range snap.PredictSourceBatch(hvs, workers) {
			if want := snap.PredictSource(hvs[i]); pred != want {
				t.Fatalf("workers=%d: PredictSourceBatch[%d] = %d, PredictSource = %d", workers, i, pred, want)
			}
		}
	}
	if snap.AdaptedPrototypes() != nil {
		t.Fatal("AdaptedPrototypes non-nil before Adapt")
	}
}

func TestTop2(t *testing.T) {
	nan, ninf := math.NaN(), math.Inf(-1)
	tests := []struct {
		xs           []float64
		best, second int
	}{
		{[]float64{0.9, 0.1}, 0, 1},
		{[]float64{0.1, 0.9}, 1, 0},
		{[]float64{0.1, 0.5, 0.9}, 2, 1},
		{[]float64{0.9, 0.5, 0.1}, 0, 1},
		{[]float64{0.5, 0.9, 0.7, 0.8}, 1, 3},
		{[]float64{-0.2, -0.1, -0.3}, 1, 0},
		// NaN hygiene: a NaN score ranks below everything and must not make
		// the selection order-dependent.
		{[]float64{nan, 0.5, 0.2}, 1, 2},
		{[]float64{0.5, nan, 0.2}, 0, 2},
		{[]float64{0.5, 0.2, nan}, 0, 1},
		{[]float64{nan, nan, 0.2}, 2, 0},
		{[]float64{nan, nan}, 0, 1},
		{[]float64{ninf, 0.3, nan}, 1, 0},
	}
	for _, tt := range tests {
		best, second := top2(tt.xs)
		if best != tt.best || second != tt.second {
			t.Errorf("top2(%v) = %d,%d want %d,%d", tt.xs, best, second, tt.best, tt.second)
		}
	}
}

func TestArgmaxNaN(t *testing.T) {
	nan := math.NaN()
	tests := []struct {
		xs   []float64
		want int
	}{
		{[]float64{nan, 0.5, 0.9}, 2},
		{[]float64{0.9, nan, 0.5}, 0},
		{[]float64{nan, nan}, 0},
		{[]float64{nan, math.Inf(-1)}, 0}, // NaN ranks with -Inf; tie → lowest index
		{[]float64{math.Inf(-1), nan, 0.1}, 2},
	}
	for _, tt := range tests {
		if got := argmax(tt.xs); got != tt.want {
			t.Errorf("argmax(%v) = %d, want %d", tt.xs, got, tt.want)
		}
	}
}

func TestSimWeightClampsNaN(t *testing.T) {
	if got := simWeight(math.NaN()); got != 0.5 {
		t.Errorf("simWeight(NaN) = %v, want 0.5 (similarity clamped to 0)", got)
	}
	if got := simWeight(1); got != 1 {
		t.Errorf("simWeight(1) = %v, want 1", got)
	}
	if got := simWeight(-1); got != 0 {
		t.Errorf("simWeight(-1) = %v, want 0", got)
	}
}

// TestTrainMissingClassExcluded pins the fix for classes absent from some
// source domain: their empty accumulators must abstain instead of competing
// with tie-break noise, and a class absent from every domain must never be
// predicted.
func TestTrainMissingClassExcluded(t *testing.T) {
	rng := testRNG(31)
	protos, samples := cluster(rng, 4, 15, testDim/3, 0)
	// Strip classes 2 and 3 from domain 0; domain 1 sees 0..2 but never 3,
	// so class 3 is absent from the whole ensemble.
	var trimmed []Sample
	for _, s := range samples {
		if s.Class < 2 {
			trimmed = append(trimmed, s)
		}
	}
	for c := range 3 {
		for range 15 {
			trimmed = append(trimmed, Sample{
				HV: flip(rng, protos[c], testDim/3), Class: c, Domain: 1,
			})
		}
	}
	m, err := New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(trimmed); err != nil {
		t.Fatal(err)
	}
	// Class 2 lives only in domain 1: domain 0 must abstain on it rather
	// than out-vote it with noise.
	for range 20 {
		q := flip(rng, protos[2], testDim/4)
		if got := m.Snapshot().Predict(q); got != 2 {
			t.Fatalf("class-2 query predicted as %d (domain without the class out-voted it)", got)
		}
	}
	// Class 3 was never trained anywhere: its ensemble score must be -Inf
	// and it must never win, even on its own cluster's queries.
	for range 20 {
		q := flip(rng, protos[3], testDim/4)
		scores := make([]float64, 4)
		if err := m.Snapshot().ScoreInto(q, scores); err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(scores[3], -1) {
			t.Fatalf("never-trained class scored %v, want -Inf", scores[3])
		}
		if got := m.Snapshot().Predict(q); got == 3 {
			t.Fatal("never-trained class was predicted")
		}
	}
}

// TestAdaptIncremental checks the streaming adaptation path: the first call
// matches AdaptBatch exactly, and later calls keep refining the same target
// model instead of rebuilding it from the source mixture.
func TestAdaptIncremental(t *testing.T) {
	build := func() (*Ensemble, []hdc.Vector) {
		rng := testRNG(41)
		protos, samples := cluster(rng, 4, 20, testDim/3, 0)
		m, err := New(testModelConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Train(samples); err != nil {
			t.Fatal(err)
		}
		var targets []hdc.Vector
		for c := range 4 {
			for range 12 {
				targets = append(targets, flip(rng, protos[c], testDim/3))
			}
		}
		return m, targets
	}

	batch, targets := build()
	if _, err := batch.AdaptBatch(targets, 1); err != nil {
		t.Fatal(err)
	}
	incr, targets2 := build()
	if _, err := incr.AdaptIncremental(targets2, 1); err != nil {
		t.Fatal(err)
	}
	a, b := batch.Snapshot().AdaptedPrototypes(), incr.Snapshot().AdaptedPrototypes()
	for c := range a {
		if !a[c].Equal(b[c]) {
			t.Fatalf("first AdaptIncremental call diverged from AdaptBatch at class %d", c)
		}
	}

	// A second incremental batch must keep the model adapted and usable.
	rng := testRNG(41)
	protos, _ := cluster(rng, 4, 0, 0, 0) // same stream ⇒ same prototypes
	var more []hdc.Vector
	for c := range 4 {
		for range 8 {
			more = append(more, flip(rng, protos[c], testDim/3))
		}
	}
	stats, err := incr.AdaptIncremental(more, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PseudoLabels == 0 {
		t.Fatal("incremental batch applied no pseudo-labels on separable targets")
	}
	for c, p := range protos {
		if got := incr.Snapshot().Predict(flip(rng, p, testDim/4)); got != c {
			t.Fatalf("after incremental adaptation class %d predicted as %d", c, got)
		}
	}
}

func BenchmarkSimilaritySearch(b *testing.B) {
	rng := testRNG(4)
	_, samples := cluster(rng, 8, 25, testDim/3, 0)
	m, err := New(Config{Dim: testDim, Classes: 8, RetrainEpochs: 1, AdaptEpochs: 1, Confidence: 0.005, AdaptRate: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Train(samples); err != nil {
		b.Fatal(err)
	}
	query := samples[0].HV
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		m.Snapshot().Predict(query)
	}
}

func BenchmarkAdapt(b *testing.B) {
	rng := testRNG(5)
	protos, samples := cluster(rng, 4, 20, testDim/3, 0)
	m, err := New(Config{Dim: testDim, Classes: 4, RetrainEpochs: 1, AdaptEpochs: 3, Confidence: 0.005, AdaptRate: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Train(samples); err != nil {
		b.Fatal(err)
	}
	var targets []hdc.Vector
	for c := range 4 {
		for range 25 {
			targets = append(targets, flip(rng, protos[c], testDim/3))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := m.AdaptBatch(targets, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptBatchLarge adapts 2,000 targets over 5 classes, so every
// class batch of the update runs AddWeighted's bit-sliced path
// (BenchmarkAdapt's batches stay below its crossover).
func BenchmarkAdaptBatchLarge(b *testing.B) {
	rng := testRNG(6)
	protos, samples := cluster(rng, 5, 40, testDim/3, 0)
	m, err := New(Config{Dim: testDim, Classes: 5, RetrainEpochs: 1, AdaptEpochs: 3, Confidence: 0.005, AdaptRate: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Train(samples); err != nil {
		b.Fatal(err)
	}
	var targets []hdc.Vector
	for i := range 2000 {
		targets = append(targets, flip(rng, protos[i%5], testDim/4+rng.IntN(testDim/8)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := m.AdaptBatch(targets, 0); err != nil {
			b.Fatal(err)
		}
	}
}
