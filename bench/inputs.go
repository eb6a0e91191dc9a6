package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"go-arxiv/smore/internal/data"
	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
)

// modelSeed seeds the served bundles' training run and class signatures, as
// `smore train`'s default -seed does. The request bodies vary with the
// benchmark seed; the model under test does not.
const modelSeed = 42

// trainConfig is `smore train`'s default configuration at the given seed
// and samples per class.
func trainConfig(seed uint64, perClass int) pipeline.Config {
	return pipeline.Config{
		Encoder: encode.Config{Dim: 4096, Sensors: 4, Levels: 32, NGram: 3, Min: -3, Max: 3, Seed: seed},
		Model: model.Config{Dim: 4096, Classes: 5, RetrainEpochs: 3, AdaptEpochs: 10,
			Confidence: 0.005, AdaptRate: 2},
		Data: data.Config{Sensors: 4, Classes: 5, WindowLen: 64, PerClass: perClass, Seed: seed,
			Domains: pipeline.DefaultDomains(2)},
		TrainFrac: 0.75,
	}
}

// fixture is what every server workload shares: the smore-serve binary,
// the served bundles on disk, an in-process reference of the adapted
// bundle, and a pool of labeled target-domain windows.
type fixture struct {
	cfg          pipeline.Config
	bin          string
	sourcePath   string // trained, not adapted: the fold probe's start
	adaptedPath  string // trained and adapted to the target split: served
	adapted      *pipeline.Bundle
	enc          *encode.Encoder
	pool         [][][]float64  // target-domain windows
	labels       []int          // aligned with pool
	trainSamples []model.Sample // encoded training split; traced runs only
}

// poolPerClass sizes the window pool the request bodies draw from.
const poolPerClass = 200

func newFixture(e *env) (*fixture, error) {
	start := time.Now()
	bin, err := buildServer(e.root, filepath.Join(e.root, ".bench_build"))
	if err != nil {
		return nil, err
	}
	fx := &fixture{
		cfg:         trainConfig(modelSeed, 40),
		bin:         bin,
		sourcePath:  filepath.Join(e.tmp, "source.smore"),
		adaptedPath: filepath.Join(e.tmp, "adapted.smore"),
	}
	art, err := pipeline.Train(fx.cfg)
	if err != nil {
		return nil, err
	}
	if err := art.Bundle().SaveFile(fx.sourcePath); err != nil {
		return nil, err
	}
	if _, err := art.Evaluate(); err != nil {
		return nil, err
	}
	if err := art.Bundle().SaveFile(fx.adaptedPath); err != nil {
		return nil, err
	}
	if fx.adapted, err = pipeline.LoadBundleFile(fx.adaptedPath); err != nil {
		return nil, err
	}
	fx.enc = art.Encoder
	// The pool shares the model's class signatures (same data seed) and
	// draws its windows from the target domain's distortion.
	pcfg := fx.cfg.Data
	pcfg.PerClass = poolPerClass
	pcfg.Domains = pcfg.Domains[len(pcfg.Domains)-1:]
	ds, err := data.Generate(pcfg)
	if err != nil {
		return nil, err
	}
	fx.pool, fx.labels = data.Windows(ds.Domains[0]), data.Labels(ds.Domains[0])
	if e.trace {
		if fx.trainSamples, err = encodeTrainSplit(fx.cfg, fx.enc); err != nil {
			return nil, err
		}
	}
	logf("fixture ready in %v: bundles trained, %d pool windows", time.Since(start).Round(time.Millisecond), len(fx.pool))
	return fx, nil
}

// encodeTrainSplit regenerates cfg's dataset and encodes the source
// domains' training split, the input Ensemble.Train sees.
func encodeTrainSplit(cfg pipeline.Config, enc *encode.Encoder) ([]model.Sample, error) {
	ds, err := data.Generate(cfg.Data)
	if err != nil {
		return nil, err
	}
	var out []model.Sample
	for d := 0; d < len(ds.Domains)-1; d++ {
		tr, _ := data.Split(ds.Domains[d], cfg.TrainFrac)
		hvs, err := enc.EncodeBatch(data.Windows(tr), 0)
		if err != nil {
			return nil, err
		}
		for i, s := range tr {
			out = append(out, model.Sample{HV: hvs[i], Class: s.Class, Domain: s.Domain})
		}
	}
	return out, nil
}

// windowsBody is the request body of the windows routes.
type windowsBody struct {
	Windows    [][][]float64 `json:"windows"`
	SourceOnly bool          `json:"source_only,omitempty"`
}

// predictResponse mirrors the predict route's answer.
type predictResponse struct {
	Predictions []int `json:"predictions"`
	Adapted     bool  `json:"adapted"`
}

// bodySet is a set of distinct pre-built request bodies; a lane's request
// sequence indexes into it.
type bodySet struct {
	bodies  [][]byte
	windows [][][][]float64 // windows[i] is body i's batch
	want    [][]int         // frozen-model predictions per body; nil when the model moves
}

// singles builds one 1-window body per pool window.
func (fx *fixture) singles() (*bodySet, error) {
	bs := &bodySet{}
	for _, w := range fx.pool {
		if err := bs.add([][][]float64{w}); err != nil {
			return nil, err
		}
	}
	return bs, nil
}

// batches builds n bodies of size windows each, drawn from the pool by e's
// seeded generator.
func (fx *fixture) batches(e *env, n, size int) (*bodySet, error) {
	bs := &bodySet{}
	for range n {
		ws := make([][][]float64, size)
		for j := range ws {
			ws[j] = fx.pool[e.pick(len(fx.pool))]
		}
		if err := bs.add(ws); err != nil {
			return nil, err
		}
	}
	return bs, nil
}

func (bs *bodySet) add(ws [][][]float64) error {
	b, err := json.Marshal(windowsBody{Windows: ws})
	if err != nil {
		return err
	}
	bs.bodies = append(bs.bodies, b)
	bs.windows = append(bs.windows, ws)
	return nil
}

// expect fills bs.want with the reference bundle's predictions for every
// body: the same bytes decoded, encoded and scored in-process.
func (bs *bodySet) expect(b *pipeline.Bundle, enc *encode.Encoder) error {
	snap := b.Model.Snapshot()
	bs.want = make([][]int, len(bs.bodies))
	for i, raw := range bs.bodies {
		var req windowsBody
		if err := json.Unmarshal(raw, &req); err != nil {
			return err
		}
		hvs, err := enc.EncodeBatch(req.Windows, 0)
		if err != nil {
			return err
		}
		bs.want[i] = snap.PredictBatch(hvs, 0)
	}
	return nil
}

// checkPredictions counts successful predict responses that are malformed
// or, when bs.want is set, differ from the in-process reference.
func checkPredictions(recs []record, seq []int, bs *bodySet, classes int) (wrong int) {
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			continue
		}
		var resp predictResponse
		if err := json.Unmarshal(r.body, &resp); err != nil || !validPredictions(resp.Predictions, len(bs.windows[seq[i]]), classes) {
			wrong++
			continue
		}
		if bs.want != nil && !slices.Equal(resp.Predictions, bs.want[seq[i]]) {
			wrong++
		}
	}
	return wrong
}

func validPredictions(p []int, n, classes int) bool {
	if len(p) != n {
		return false
	}
	for _, c := range p {
		if c < 0 || c >= classes {
			return false
		}
	}
	return true
}

// logf reports progress on stderr; stdout carries only the summary and the
// result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}
