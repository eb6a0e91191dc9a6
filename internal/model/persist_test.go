package model

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"go-arxiv/smore/internal/hdc"
)

// trainedEnsemble builds a deterministic trained (and optionally adapted)
// two-domain ensemble plus a set of query vectors for prediction checks.
func trainedEnsemble(t *testing.T, seed uint64, adapt bool) (*Ensemble, []hdc.Vector) {
	t.Helper()
	rng := testRNG(seed)
	protos, samples := cluster(rng, 4, 12, testDim/3, 0)
	for c := range 4 {
		for range 12 {
			samples = append(samples, Sample{
				HV: flip(rng, protos[c], testDim/3), Class: c, Domain: 1,
			})
		}
	}
	m, err := New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(samples); err != nil {
		t.Fatal(err)
	}
	var queries []hdc.Vector
	for c := range 4 {
		for range 6 {
			queries = append(queries, flip(rng, protos[c], testDim/4))
		}
	}
	if adapt {
		var targets []hdc.Vector
		for c := range 4 {
			for range 10 {
				targets = append(targets, flip(rng, protos[c], testDim/3))
			}
		}
		if _, err := m.AdaptBatch(targets, 0); err != nil {
			t.Fatal(err)
		}
	}
	return m, queries
}

func marshalEnsemble(t *testing.T, m *Ensemble) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestEnsembleRoundTrip is the core persistence contract: a trained+adapted
// ensemble survives save→load with byte-identical predictions, and the codec
// is canonical (load→save is byte-identical too).
func TestEnsembleRoundTrip(t *testing.T) {
	for _, adapt := range []bool{false, true} {
		name := "trained"
		if adapt {
			name = "adapted"
		}
		t.Run(name, func(t *testing.T) {
			m, queries := trainedEnsemble(t, 51, adapt)
			raw := marshalEnsemble(t, m)
			got, err := Decode(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if got.Config() != m.Config() {
				t.Fatalf("loaded config %+v, want %+v", got.Config(), m.Config())
			}
			if got.Adapted() != adapt {
				t.Fatalf("loaded Adapted() = %v, want %v", got.Adapted(), adapt)
			}
			for i, q := range queries {
				if a, b := m.Snapshot().Predict(q), got.Snapshot().Predict(q); a != b {
					t.Fatalf("query %d: original predicts %d, loaded predicts %d", i, a, b)
				}
				if a, b := m.Snapshot().PredictSource(q), got.Snapshot().PredictSource(q); a != b {
					t.Fatalf("query %d: source prediction diverged after load: %d vs %d", i, a, b)
				}
			}
			if !bytes.Equal(raw, marshalEnsemble(t, got)) {
				t.Fatal("load→save is not byte-identical: the codec is not canonical")
			}
		})
	}
}

// TestResumeAdaptationEquivalence checks that persistence is transparent to
// the adaptation loop: train→save→load→Adapt must produce exactly the same
// adapted model as training and adapting straight through.
func TestResumeAdaptationEquivalence(t *testing.T) {
	straight, _ := trainedEnsemble(t, 52, false)
	loaded, err := Decode(bytes.NewReader(marshalEnsemble(t, straight)))
	if err != nil {
		t.Fatal(err)
	}

	rng := testRNG(520)
	protos, _ := cluster(testRNG(52), 4, 0, 0, 0) // same stream ⇒ same prototypes
	var targets []hdc.Vector
	for c := range 4 {
		for range 10 {
			targets = append(targets, flip(rng, protos[c], testDim/3))
		}
	}
	sStats, err := straight.AdaptBatch(targets, 0)
	if err != nil {
		t.Fatal(err)
	}
	lStats, err := loaded.AdaptBatch(targets, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sStats != lStats {
		t.Fatalf("adaptation stats diverged: straight %+v, resumed %+v", sStats, lStats)
	}
	sp, lp := straight.Snapshot().AdaptedPrototypes(), loaded.Snapshot().AdaptedPrototypes()
	for c := range sp {
		if !sp[c].Equal(lp[c]) {
			t.Fatalf("class %d adapted prototype diverged after save→load→Adapt", c)
		}
	}
	if !bytes.Equal(marshalEnsemble(t, straight), marshalEnsemble(t, loaded)) {
		t.Fatal("serialized adapted ensembles diverged after save→load→Adapt")
	}
}

// goldenEnsemble is a small fixed build pinned by the committed golden file;
// any codec or training-path change that alters the bytes must be deliberate
// (regenerate with UPDATE_GOLDEN=1 go test ./internal/model -run Golden).
func goldenEnsemble(t *testing.T) *Ensemble {
	t.Helper()
	const dim = 256
	rng := testRNG(0x901d)
	m, err := New(Config{
		Dim: dim, Classes: 3, RetrainEpochs: 1, AdaptEpochs: 3,
		Confidence: 0.005, AdaptRate: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]hdc.Vector, 3)
	for c := range protos {
		protos[c] = hdc.Random(rng, dim)
	}
	var samples []Sample
	for d := range 2 {
		for c := range 3 {
			for range 8 {
				hv := protos[c].Clone()
				for _, b := range rng.Perm(dim)[:dim/4] {
					hv.FlipBit(b)
				}
				samples = append(samples, Sample{HV: hv, Class: c, Domain: d})
			}
		}
	}
	if err := m.Train(samples); err != nil {
		t.Fatal(err)
	}
	var targets []hdc.Vector
	for c := range 3 {
		for range 6 {
			hv := protos[c].Clone()
			for _, b := range rng.Perm(dim)[:dim/4] {
				hv.FlipBit(b)
			}
			targets = append(targets, hv)
		}
	}
	if _, err := m.AdaptBatch(targets, 0); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEnsembleGolden(t *testing.T) {
	path := filepath.Join("testdata", "ensemble_golden.bin")
	raw := marshalEnsemble(t, goldenEnsemble(t))
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("serialized ensemble differs from golden file (%d vs %d bytes); if the codec or training path changed deliberately, regenerate with UPDATE_GOLDEN=1", len(raw), len(want))
	}
	// The committed artifact must still load and predict like a fresh build.
	loaded, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	fresh := goldenEnsemble(t)
	rng := testRNG(0x90)
	for range 25 {
		q := hdc.Random(rng, 256)
		if a, b := fresh.Snapshot().Predict(q), loaded.Snapshot().Predict(q); a != b {
			t.Fatalf("golden-loaded ensemble predicts %d, fresh build predicts %d", b, a)
		}
	}
}

func TestWriteToUntrained(t *testing.T) {
	m, err := New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteTo(&bytes.Buffer{}); err == nil {
		t.Error("WriteTo accepted an untrained ensemble")
	}
}

func TestDecodeErrors(t *testing.T) {
	m, _ := trainedEnsemble(t, 53, true)
	good := marshalEnsemble(t, m)

	corrupt := func(mutate func([]byte)) []byte {
		b := bytes.Clone(good)
		mutate(b)
		return b
	}
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", corrupt(func(b []byte) { copy(b, "NOPE") })},
		{"truncated header", good[:10]},
		{"truncated body", good[:len(good)/2]},
		{"bad dim", corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 100) })},
		{"huge classes", corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<30) })},
		{"huge adapt epochs", corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 1<<30) })},
		{"huge domain count", corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[44:], 1<<31) })},
		{"zero domains", corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[44:], 0) })},
		{"bad adapted flag", corrupt(func(b []byte) { b[48] = 7 })},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(bytes.NewReader(tt.data)); err == nil {
				t.Error("Decode accepted corrupt input")
			}
		})
	}
}
