// Package pipeline wires the SMORE stages — synthetic data generation,
// hypervector encoding, associative-memory training, and similarity-based
// adaptation — into one reproducible run shared by the CLI demo and the
// end-to-end tests. Encoding, prediction, and adaptation all go through the
// batch APIs backed by the shared worker pool, so runs scale across cores
// while staying byte-identical for every worker count.
package pipeline

import (
	"fmt"

	"go-arxiv/smore/internal/data"
	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
)

// Config is the full pipeline configuration. The last entry of
// Data.Domains is treated as the unlabeled target domain; all earlier
// entries are labeled source domains.
type Config struct {
	Encoder   encode.Config
	Model     model.Config
	Data      data.Config
	Strategy  model.Strategy // adaptation recipe; zero value = the paper's default
	TrainFrac float64        // fraction of each source domain used for training
	Workers   int            // worker-pool size for batch stages; <= 0 means GOMAXPROCS
}

// Result summarizes one pipeline run.
type Result struct {
	SourceAccuracy float64          `json:"source_accuracy"` // held-out source-domain accuracy
	TargetBaseline float64          `json:"target_baseline"` // target accuracy before adaptation
	TargetAdapted  float64          `json:"target_adapted"`  // target accuracy after adaptation
	Adapt          model.AdaptStats `json:"adapt_stats"`
	Elapsed        string           `json:"elapsed,omitempty"`
}

// DefaultDomains returns n mildly distorted source domains plus one
// strongly shifted target domain, the shape the demo and tests use.
func DefaultDomains(n int) []data.Shift {
	if n < 1 {
		n = 1
	}
	domains := make([]data.Shift, 0, n+1)
	for i := range n {
		domains = append(domains, data.Shift{
			Name:     fmt.Sprintf("source-%d", i),
			AmpScale: 1 + 0.1*float64(i),
			Offset:   0.05 * float64(i),
			Phase:    0.1 * float64(i),
			NoiseStd: 0.05 + 0.02*float64(i),
		})
	}
	domains = append(domains, data.Shift{
		Name:     "target",
		AmpScale: 0.9,
		Offset:   0.15,
		Phase:    0.3,
		NoiseStd: 0.08,
	})
	return domains
}

// Artifacts is the train-once state the evaluate/adapt path and the serving
// surface share: the frozen encoder, the trained ensemble, and the encoded
// evaluation splits. Build it with Train (train a fresh model) or WithModel
// (wrap an already-trained, e.g. loaded, model).
type Artifacts struct {
	Config     Config
	Encoder    *encode.Encoder
	Model      *model.Ensemble
	SourceTest []model.Sample // held-out source-domain samples
	Target     []model.Sample // encoded (unlabeled at adapt time) target samples
	// TargetWindows are the raw target windows, aligned one-to-one with
	// Target; the stream-replay path feeds them back through the encoder.
	TargetWindows [][][]float64
}

// Train executes generate → encode → train and returns the reusable
// artifacts; it is the train-once half of the train-once/serve-many split.
func Train(cfg Config) (*Artifacts, error) {
	mdl, err := model.New(cfg.Model)
	if err != nil {
		return nil, err
	}
	mdl.SetStrategy(cfg.Strategy)
	return prepare(cfg, mdl, true)
}

// WithModel builds artifacts around an already-trained ensemble (typically
// loaded from a saved bundle), regenerating and encoding the evaluation
// splits from cfg without retraining.
func WithModel(cfg Config, mdl *model.Ensemble) (*Artifacts, error) {
	mcfg := mdl.Config()
	if mcfg.Dim != cfg.Encoder.Dim {
		return nil, fmt.Errorf("pipeline: model dimension %d does not match encoder dimension %d", mcfg.Dim, cfg.Encoder.Dim)
	}
	if mcfg.Classes != cfg.Data.Classes {
		return nil, fmt.Errorf("pipeline: model has %d classes, dataset has %d", mcfg.Classes, cfg.Data.Classes)
	}
	return prepare(cfg, mdl, false)
}

func prepare(cfg Config, mdl *model.Ensemble, train bool) (*Artifacts, error) {
	if len(cfg.Data.Domains) < 2 {
		return nil, fmt.Errorf("pipeline: need at least one source and one target domain")
	}
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		return nil, fmt.Errorf("pipeline: TrainFrac %v outside (0,1)", cfg.TrainFrac)
	}
	ds, err := data.Generate(cfg.Data)
	if err != nil {
		return nil, err
	}
	enc, err := encode.New(cfg.Encoder)
	if err != nil {
		return nil, err
	}

	encodeSamples := func(samples []data.Sample) ([]model.Sample, error) {
		windows := make([][][]float64, len(samples))
		for i, s := range samples {
			windows[i] = s.Window
		}
		hvs, err := enc.EncodeBatch(windows, cfg.Workers)
		if err != nil {
			return nil, err
		}
		out := make([]model.Sample, len(samples))
		for i, s := range samples {
			out[i] = model.Sample{HV: hvs[i], Class: s.Class, Domain: s.Domain}
		}
		return out, nil
	}

	targetIdx := len(ds.Domains) - 1
	var trainSet, sourceTest []model.Sample
	for d := 0; d < targetIdx; d++ {
		tr, te := data.Split(ds.Domains[d], cfg.TrainFrac)
		// An empty split would silently score 0.0 (or train on nothing);
		// fail loudly with the knobs that caused it instead.
		if len(tr) == 0 || len(te) == 0 {
			return nil, fmt.Errorf(
				"pipeline: source domain %q: TrainFrac %v of %d samples leaves %d train / %d test; both splits must be non-empty (raise PerClass or adjust TrainFrac)",
				cfg.Data.Domains[d].Name, cfg.TrainFrac, len(ds.Domains[d]), len(tr), len(te))
		}
		etr, err := encodeSamples(tr)
		if err != nil {
			return nil, err
		}
		ete, err := encodeSamples(te)
		if err != nil {
			return nil, err
		}
		trainSet = append(trainSet, etr...)
		sourceTest = append(sourceTest, ete...)
	}
	target, err := encodeSamples(ds.Domains[targetIdx])
	if err != nil {
		return nil, err
	}

	if train {
		if err := mdl.Train(trainSet); err != nil {
			return nil, err
		}
	}
	return &Artifacts{
		Config:        cfg,
		Encoder:       enc,
		Model:         mdl,
		SourceTest:    sourceTest,
		Target:        target,
		TargetWindows: data.Windows(ds.Domains[targetIdx]),
	}, nil
}

// EvaluateBaseline scores the held-out source split and the target split
// with the source-only ensemble, without adapting: TargetAdapted stays zero
// and a.Model is left untouched. A bundle saved afterwards serves the
// pre-adaptation model — the starting point for streaming adaptation.
func (a *Artifacts) EvaluateBaseline() (*Result, error) {
	res, _, _, err := a.baseline()
	return res, err
}

// baseline scores the source-only ensemble and hands back the target slices
// so Evaluate can adapt on them without rebuilding.
func (a *Artifacts) baseline() (*Result, []hdc.Vector, []int, error) {
	srcHVs, srcClasses := hvsAndClasses(a.SourceTest)
	tgtHVs, tgtClasses := hvsAndClasses(a.Target)
	if len(srcHVs) == 0 {
		return nil, nil, nil, fmt.Errorf("pipeline: no held-out source samples to evaluate")
	}
	if len(tgtHVs) == 0 {
		return nil, nil, nil, fmt.Errorf("pipeline: no target samples to adapt to")
	}
	workers := a.Config.Workers
	snap := a.Model.Snapshot()
	res := &Result{
		SourceAccuracy: evalBatch(srcHVs, srcClasses, snap.PredictSourceBatch, workers),
		TargetBaseline: evalBatch(tgtHVs, tgtClasses, snap.PredictSourceBatch, workers),
	}
	return res, tgtHVs, tgtClasses, nil
}

// Evaluate runs baseline-eval → adapt → eval on the artifacts' model. It
// mutates a.Model (the ensemble ends up adapted to the target split), which
// is exactly the artifact a caller then saves or serves.
func (a *Artifacts) Evaluate() (*Result, error) {
	res, tgtHVs, tgtClasses, err := a.baseline()
	if err != nil {
		return nil, err
	}
	workers := a.Config.Workers
	stats, err := a.Model.AdaptBatch(tgtHVs, workers)
	if err != nil {
		return nil, err
	}
	res.Adapt = stats
	res.TargetAdapted = evalBatch(tgtHVs, tgtClasses, a.Model.Snapshot().PredictBatch, workers)
	return res, nil
}

// Bundle packages the artifacts' encoder configuration and (possibly
// adapted) model for persistence or serving.
func (a *Artifacts) Bundle() *Bundle {
	return &Bundle{Encoder: a.Encoder.Config(), Model: a.Model}
}

// Run executes generate → encode → train → baseline-eval → adapt → eval.
func Run(cfg Config) (*Result, error) {
	art, err := Train(cfg)
	if err != nil {
		return nil, err
	}
	return art.Evaluate()
}

func hvsAndClasses(samples []model.Sample) ([]hdc.Vector, []int) {
	hvs := make([]hdc.Vector, len(samples))
	classes := make([]int, len(samples))
	for i, s := range samples {
		hvs[i], classes[i] = s.HV, s.Class
	}
	return hvs, classes
}

func evalBatch(hvs []hdc.Vector, classes []int, predictBatch func([]hdc.Vector, int) []int, workers int) float64 {
	if len(hvs) == 0 {
		return 0
	}
	preds := predictBatch(hvs, workers)
	hits := 0
	for i, c := range classes {
		if preds[i] == c {
			hits++
		}
	}
	return float64(hits) / float64(len(hvs))
}
