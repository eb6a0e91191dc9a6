package pipeline

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"go-arxiv/smore/internal/data"
	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/fault"
	"go-arxiv/smore/internal/model"
)

// e2eConfig is a deliberately small but realistic configuration whose
// behavior is pinned by the fixed seed: the target domain's shift drops the
// no-adapt baseline well below the source accuracy, leaving the adaptation
// loop clear room to improve.
func e2eConfig(seed uint64) Config {
	return Config{
		Encoder: encode.Config{
			Dim: 1024, Sensors: 3, Levels: 16, NGram: 3, Min: -3, Max: 3, Seed: seed,
		},
		Model: model.Config{
			Dim: 1024, Classes: 4, RetrainEpochs: 2, AdaptEpochs: 10,
			Confidence: 0.005, AdaptRate: 2,
		},
		Data: data.Config{
			Sensors: 3, Classes: 4, WindowLen: 48, PerClass: 24, Seed: seed,
			Domains: DefaultDomains(2),
		},
		TrainFrac: 0.75,
	}
}

// TestAdaptationImprovesTargetAccuracy is the acceptance test for SMORE's
// core claim on the seeded synthetic dataset: similarity-based adaptation
// must land strictly above the no-adapt source-ensemble baseline on the
// shifted target domain.
func TestAdaptationImprovesTargetAccuracy(t *testing.T) {
	res, err := Run(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("source=%.3f baseline=%.3f adapted=%.3f pseudo-labels=%d skipped=%d",
		res.SourceAccuracy, res.TargetBaseline, res.TargetAdapted,
		res.Adapt.PseudoLabels, res.Adapt.Skipped)
	if res.SourceAccuracy < 0.9 {
		t.Errorf("source accuracy %.3f, want >= 0.9 (model failed to learn the source domains)", res.SourceAccuracy)
	}
	if res.TargetBaseline >= res.SourceAccuracy {
		t.Errorf("target baseline %.3f not below source accuracy %.3f: the domain shift is not biting",
			res.TargetBaseline, res.SourceAccuracy)
	}
	if res.TargetAdapted <= res.TargetBaseline {
		t.Errorf("adaptation did not improve target accuracy: baseline %.3f, adapted %.3f",
			res.TargetBaseline, res.TargetAdapted)
	}
	if res.Adapt.PseudoLabels == 0 {
		t.Error("adaptation applied no pseudo-labels")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("identical configs produced different results:\n%+v\n%+v", a, b)
	}
}

// TestStreamEvaluateMatchesOneShot is the acceptance test for the streaming
// replay: adapting over an arriving stream of micro-batches must end at the
// same final target accuracy as the one-shot AdaptBatch path on the e2e
// config, with the baseline untouched.
func TestStreamEvaluateMatchesOneShot(t *testing.T) {
	one, err := Train(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := one.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	str, err := Train(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := str.StreamEvaluate(8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one-shot baseline=%.3f adapted=%.3f | streamed batches=%d trajectory=%.3v",
		oneShot.TargetBaseline, oneShot.TargetAdapted, streamed.Batches, streamed.Trajectory)
	if streamed.TargetBaseline != oneShot.TargetBaseline {
		t.Errorf("stream baseline %.4f != one-shot baseline %.4f (same model, no folds yet)",
			streamed.TargetBaseline, oneShot.TargetBaseline)
	}
	if streamed.TargetAdapted != oneShot.TargetAdapted {
		t.Errorf("streamed final accuracy %.4f != one-shot adapted accuracy %.4f",
			streamed.TargetAdapted, oneShot.TargetAdapted)
	}
	if streamed.TargetAdapted <= streamed.TargetBaseline {
		t.Errorf("streamed adaptation did not improve: baseline %.4f, final %.4f",
			streamed.TargetBaseline, streamed.TargetAdapted)
	}
	wantBatches := (len(str.Target) + 7) / 8
	if streamed.Batches != wantBatches || len(streamed.Trajectory) != wantBatches {
		t.Errorf("folded %d batches with %d trajectory points, want %d of each",
			streamed.Batches, len(streamed.Trajectory), wantBatches)
	}
	if streamed.Adapt.PseudoLabels == 0 {
		t.Error("streamed adaptation applied no pseudo-labels")
	}
	if !str.Model.Snapshot().Adapted() {
		t.Error("model not adapted after StreamEvaluate")
	}
}

// TestStreamEvaluateDeterministic replays the same stream twice from
// scratch: with a fixed batch order the full trajectory must be
// reproducible bit-for-bit, at any worker count.
func TestStreamEvaluateDeterministic(t *testing.T) {
	replay := func(workers int) *StreamResult {
		cfg := e2eConfig(7)
		cfg.Workers = workers
		art, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := art.StreamEvaluate(8)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := replay(1), replay(1), replay(4)
	for name, other := range map[string]*StreamResult{"rerun": b, "workers=4": c} {
		if a.TargetBaseline != other.TargetBaseline || a.TargetAdapted != other.TargetAdapted ||
			a.Batches != other.Batches || a.Adapt != other.Adapt {
			t.Fatalf("%s diverged:\n%+v\n%+v", name, a, other)
		}
		if len(a.Trajectory) != len(other.Trajectory) {
			t.Fatalf("%s trajectory length %d != %d", name, len(other.Trajectory), len(a.Trajectory))
		}
		for i := range a.Trajectory {
			if a.Trajectory[i] != other.Trajectory[i] {
				t.Fatalf("%s trajectory[%d] = %v, want %v", name, i, other.Trajectory[i], a.Trajectory[i])
			}
		}
	}
}

func TestStreamEvaluateRejectsBadBatchSize(t *testing.T) {
	art, err := Train(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := art.StreamEvaluate(0); err == nil {
		t.Fatal("StreamEvaluate accepted batch size 0")
	}
}

func TestRunConfigErrors(t *testing.T) {
	cfg := e2eConfig(7)
	cfg.Data.Domains = cfg.Data.Domains[:1]
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted a single-domain config")
	}
	cfg = e2eConfig(7)
	cfg.TrainFrac = 1.5
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted TrainFrac > 1")
	}
	cfg = e2eConfig(7)
	cfg.Encoder.Dim = 100
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted an invalid encoder dimension")
	}
}

// TestRunEmptySplitError pins the fix for silently reporting 0.0 accuracy:
// a TrainFrac that leaves a source domain with an empty train or test split
// must produce a descriptive error, not a zero-sample evaluation.
func TestRunEmptySplitError(t *testing.T) {
	cfg := e2eConfig(7)
	cfg.Data.PerClass = 1
	cfg.Data.Classes = 2
	cfg.Model.Classes = 2
	cfg.TrainFrac = 0.4 // int(2*0.4) = 0 training samples per source domain
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("Run accepted a config whose source split is empty")
	}
	if !strings.Contains(err.Error(), "TrainFrac") {
		t.Fatalf("error %q does not mention TrainFrac", err)
	}
}

// TestTrainEvaluateMatchesRun checks the train-once/serve-many split stays
// equivalent to the monolithic path.
func TestTrainEvaluateMatchesRun(t *testing.T) {
	want, err := Run(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	art, err := Train(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := art.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("Train+Evaluate result %+v differs from Run %+v", got, want)
	}
	if !art.Model.Snapshot().Adapted() {
		t.Fatal("Evaluate left the artifacts' model unadapted")
	}
}

// TestBundleRoundTrip is the serve-path persistence contract: a bundle
// survives save→load with byte-identical predictions on freshly encoded
// windows, the codec is canonical, and a loaded model keeps evaluating
// exactly like the original via WithModel.
func TestBundleRoundTrip(t *testing.T) {
	art, err := Train(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := art.Evaluate()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := art.Bundle().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	b, err := ReadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if b.Encoder != art.Encoder.Config() {
		t.Fatalf("loaded encoder config %+v, want %+v", b.Encoder, art.Encoder.Config())
	}
	if !b.Model.Snapshot().Adapted() {
		t.Fatal("loaded model lost its adapted target model")
	}
	var buf2 bytes.Buffer
	if _, err := b.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf2.Bytes()) {
		t.Fatal("bundle load→save is not byte-identical")
	}

	// Loaded model + regenerated eval splits must predict identically to
	// the in-memory original on every held-out sample.
	loadedArt, err := WithModel(e2eConfig(7), b.Model)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range art.Target {
		if a, g := art.Model.Snapshot().Predict(s.HV), loadedArt.Model.Snapshot().Predict(loadedArt.Target[i].HV); a != g {
			t.Fatalf("target sample %d: original predicts %d, loaded predicts %d", i, a, g)
		}
	}
	// Re-running Evaluate re-adapts the loaded model from its sources over
	// the same targets; everything is deterministic, so the numbers match.
	got, err := loadedArt.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("loaded-model Evaluate %+v differs from original %+v", got, want)
	}
}

func TestReadBundleErrors(t *testing.T) {
	art, err := Train(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := art.Bundle().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	badMagic := bytes.Clone(good)
	copy(badMagic, "NOPE")
	for _, tt := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", badMagic},
		{"truncated header", good[:20]},
		{"truncated model", good[:len(good)/2]},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadBundle(bytes.NewReader(tt.data)); err == nil {
				t.Error("ReadBundle accepted corrupt input")
			}
		})
	}
}

func TestBundleFileRoundTrip(t *testing.T) {
	art, err := Train(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.smore")
	if err := art.Bundle().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundleFile(path); err != nil {
		t.Fatal(err)
	}
	// Saving over an existing bundle must go through a same-directory temp
	// file + rename, leaving no stragglers.
	if err := art.Bundle().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("bundle directory holds %d entries after re-save, want 1", len(entries))
	}

	// A save whose fsync fails must leave the old bytes at the path and no
	// temp file beside them.
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	art.Model.SetStrategy(model.Strategy{Update: model.EMAUpdate{}}) // new bytes
	if err := fault.Enable("persist.sync", 1); err != nil {
		t.Fatal(err)
	}
	err = art.Bundle().SaveFile(path)
	fault.Disable()
	if !errors.As(err, new(*fault.Error)) {
		t.Fatalf("SaveFile with a failing fsync: err = %v, want the injected failure", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("a failed save changed the bundle at the path (err %v)", err)
	}
	if entries, err = os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Fatalf("bundle directory holds %d entries after a failed save, want 1 (err %v)", len(entries), err)
	}

	// A bare relative filename must also save (temp file staged in the
	// working directory, not the system temp dir on another filesystem).
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) //nolint:errcheck
	if err := art.Bundle().SaveFile("bare.smore"); err != nil {
		t.Fatalf("SaveFile with a bare filename: %v", err)
	}
	if _, err := LoadBundleFile("bare.smore"); err != nil {
		t.Fatal(err)
	}

	// Trailing garbage after the payload must fail the load, not silently
	// serve the parseable prefix.
	raw, err := os.ReadFile("bare.smore")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("trailing.smore", append(raw, 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundleFile("trailing.smore"); err == nil {
		t.Error("LoadBundleFile accepted a bundle with trailing bytes")
	}
}

func TestWithModelMismatch(t *testing.T) {
	art, err := Train(e2eConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := e2eConfig(7)
	cfg.Encoder.Dim = 2048
	cfg.Model.Dim = 2048
	if _, err := WithModel(cfg, art.Model); err == nil {
		t.Error("WithModel accepted a model whose dimension mismatches the encoder")
	}
	cfg = e2eConfig(7)
	cfg.Data.Classes = 5
	cfg.Model.Classes = 5
	if _, err := WithModel(cfg, art.Model); err == nil {
		t.Error("WithModel accepted a model whose class count mismatches the dataset")
	}
}

func TestDefaultDomains(t *testing.T) {
	doms := DefaultDomains(3)
	if len(doms) != 4 {
		t.Fatalf("DefaultDomains(3) returned %d domains, want 4", len(doms))
	}
	if doms[len(doms)-1].Name != "target" {
		t.Fatal("last domain is not the target")
	}
	if len(DefaultDomains(0)) != 2 {
		t.Fatal("DefaultDomains(0) should clamp to one source plus target")
	}
}
