package model

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/parallel"
)

// Snapshot is an immutable, self-contained view of a trained ensemble: the
// packed per-domain class-prototype matrices, the packed domain-prototype
// matrix, the per-class sample counts, the configuration, the adaptation
// strategy, the adapted target models if any exist, the target list, the
// rollback checkpoint, and a version. An Ensemble publishes a fresh snapshot
// after every successful Train, SetStrategy, Adapt*, ReadFrom, SpawnTarget,
// Rollback, and RestoreCheckpoint via a single atomic pointer swap, so
// every method on a snapshot is lock-free, every scoring method
// allocation-free in steady state, and all are safe for any number of
// concurrent callers: a reader either sees the state before a fold or after
// it, never a half-rebuilt prototype matrix.
//
// Snapshots share nothing mutable with the ensemble that produced them —
// the matrices are deep copies and the checkpoint bytes are never modified —
// so holding one across further adaptation is safe and keeps answering with
// the state it captured.
type Snapshot struct {
	cfg     Config
	domains []snapDomain
	domMat  *hdc.Matrix // packed source domain prototypes for weighting

	// targets holds the initialized adapted target domains, in spawn order.
	// One target is scored directly (the historical single-target fast
	// path, byte-identical); several vote weighted by the similarity of the
	// query to each target's domain prototype, packed in tgtMat (nil until
	// a second target exists). active indexes the fold destination, -1 when
	// none is initialized.
	targets []snapDomain
	tgtMat  *hdc.Matrix
	active  int

	// version is the publishing ensemble's publish count at this snapshot;
	// strategy is the installed adaptation recipe, every piece filled in; infos
	// lists every target, pending spawns included; checkpoint is the
	// rollback checkpoint (nil when none), shared with the ensemble and
	// never modified.
	version    uint64
	strategy   Strategy
	infos      []TargetInfo
	checkpoint []byte

	// pool is shared with the publishing ensemble across snapshots, so a
	// fold does not cold-start the zero-alloc scratch on the predict path.
	pool *scratchPool
}

// snapDomain is the read-only scoring state of one domain: its packed
// binarized class prototypes and per-class training counts.
type snapDomain struct {
	protMat    *hdc.Matrix
	classCount []int64
}

func (d *snapDomain) scores(hv hdc.Vector, dst []float64) {
	protoScores(d.protMat, d.classCount, hv, dst)
}

// protoScores fills dst with the cosine similarity of hv to each class
// prototype in one contiguous kernel pass. A class the domain has never
// seen has an empty accumulator whose Majority is pure tie-break noise;
// scoring it at full strength would let noise win argmax, so never-trained
// classes are excluded with a -Inf score.
func protoScores(protMat *hdc.Matrix, classCount []int64, hv hdc.Vector, dst []float64) {
	protMat.CosineInto(hv, dst)
	for c, n := range classCount {
		if n == 0 {
			dst[c] = math.Inf(-1)
		}
	}
}

// scoreScratch is the per-call float buffer set one scoring pass needs.
type scoreScratch struct {
	scores, total, wsum, weights []float64
}

// scratchPool pools scoreScratch buffers so concurrent scoring allocates
// nothing in steady state; buffers are resized on Get, so one pool serves
// snapshots of any shape.
type scratchPool struct {
	p sync.Pool
}

func (sp *scratchPool) get(classes, domains int) *scoreScratch {
	sc, _ := sp.p.Get().(*scoreScratch)
	if sc == nil {
		sc = &scoreScratch{}
	}
	sc.scores = resize(sc.scores, classes)
	sc.total = resize(sc.total, classes)
	sc.wsum = resize(sc.wsum, classes)
	sc.weights = resize(sc.weights, domains)
	return sc
}

func (sp *scratchPool) put(sc *scoreScratch) { sp.p.Put(sc) }

// resize reuses s's backing array when it is large enough (the steady
// state) and reallocates only when the model shape grew.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Config returns the configuration the snapshot was published with.
func (s *Snapshot) Config() Config { return s.cfg }

// Adapted reports whether the snapshot carries at least one adapted target
// model.
func (s *Snapshot) Adapted() bool { return len(s.targets) > 0 }

// Version counts the ensemble's publishes up to and including this
// snapshot: every published change moves it by one.
func (s *Snapshot) Version() uint64 { return s.version }

// Strategy returns the adaptation strategy installed when the snapshot was
// published; on the snapshot a fold returns, the one that fold ran under.
func (s *Snapshot) Strategy() Strategy { return s.strategy }

// Targets lists the adapted target domains in spawn order, pending spawns
// included.
func (s *Snapshot) Targets() []TargetInfo { return slices.Clone(s.infos) }

// HasCheckpoint reports whether Rollback has checkpointed state to restore.
func (s *Snapshot) HasCheckpoint() bool { return s.checkpoint != nil }

// CheckpointBytes returns the rollback checkpoint (the canonical encoding
// captured by the last SpawnTarget), or nil when none exists.
// The bytes are shared and must not be modified.
func (s *Snapshot) CheckpointBytes() []byte { return s.checkpoint }

// weightsInto fills w (one slot per row of domMat) with
// similarity-proportional weights of hv against every domain prototype,
// normalized to sum to 1, scoring the packed domain matrix in one kernel
// pass. Cosine is mapped through (1+cos)/2 so weights stay non-negative and
// a domain nearly as similar as the best one keeps a proportional share of
// the vote (rather than a min-shift that would zero it out entirely).
func weightsInto(domMat *hdc.Matrix, hv hdc.Vector, w []float64) {
	domMat.CosineInto(hv, w)
	sum := 0.0
	for i, cos := range w {
		w[i] = simWeight(cos)
		sum += w[i]
	}
	if sum == 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return
	}
	for i := range w {
		w[i] /= sum
	}
}

// voteInto writes per-class scores of hv under the similarity-weighted vote
// of doms into dst, weighting each domain by the similarity of hv to its
// row of mat (the packed domain prototypes) and using sc for intermediate
// buffers. Each class's score is the weighted mean over the domains that
// have actually seen the class, so a domain missing a class abstains on it
// instead of voting noise; a class no domain has seen scores -Inf and can
// never win. The source ensemble and a set of several adapted targets both
// vote this way. The pooled weights buffer may be longer than doms (it is
// sized for the larger vote), so only its first len(doms) slots are read.
func voteInto(mat *hdc.Matrix, doms []snapDomain, hv hdc.Vector, dst []float64, sc *scoreScratch) {
	wsum, scores, weights := sc.wsum, sc.scores, sc.weights[:len(doms)]
	for c := range dst {
		dst[c] = 0
		wsum[c] = 0
	}
	weightsInto(mat, hv, weights)
	for i := range doms {
		d := &doms[i]
		d.scores(hv, scores)
		for c, sv := range scores {
			if d.classCount[c] == 0 {
				continue
			}
			dst[c] += weights[i] * sv
			wsum[c] += weights[i]
		}
	}
	for c := range dst {
		if wsum[c] == 0 {
			dst[c] = math.Inf(-1)
			continue
		}
		dst[c] /= wsum[c]
	}
}

// scratch returns a pooled scoring scratch sized for every vote the
// snapshot can run (source-domain or multi-target weights).
func (s *Snapshot) scratch() *scoreScratch {
	return s.pool.get(s.cfg.Classes, max(len(s.domains), len(s.targets)))
}

// scoresInto writes the served per-class scores of hv into dst: a single
// adapted target's prototype similarities when one exists, the vote over
// all targets when several do, otherwise the source-ensemble vote.
func (s *Snapshot) scoresInto(hv hdc.Vector, dst []float64, sc *scoreScratch) {
	switch {
	case len(s.targets) == 1:
		s.targets[0].scores(hv, dst)
	case len(s.targets) > 1:
		voteInto(s.tgtMat, s.targets, hv, dst, sc)
	default:
		voteInto(s.domMat, s.domains, hv, dst, sc)
	}
}

// ScoreInto writes the snapshot's per-class scores for hv into dst, which
// must hold exactly Config().Classes slots: a single adapted target model's
// prototype similarities when one exists, the similarity-weighted vote over
// all targets when several do, otherwise the similarity-weighted
// source-ensemble scores. Classes the active model has never seen score
// -Inf. The pass allocates nothing in steady state, so batch callers can
// reuse one dst across queries.
//
//smore:hotpath
func (s *Snapshot) ScoreInto(hv hdc.Vector, dst []float64) error {
	if hv.Dim() != s.cfg.Dim {
		return fmt.Errorf("%w: query has dimension %d, model wants %d", ErrInvalidTargets, hv.Dim(), s.cfg.Dim)
	}
	if len(dst) != s.cfg.Classes {
		return fmt.Errorf("%w: dst holds %d scores, want %d", ErrInvalidTargets, len(dst), s.cfg.Classes)
	}
	sc := s.scratch()
	s.scoresInto(hv, dst, sc)
	s.pool.put(sc)
	return nil
}

// Predict classifies hv: with the adapted target model(s) when the snapshot
// carries any, otherwise with the similarity-weighted source ensemble.
//
//smore:hotpath
func (s *Snapshot) Predict(hv hdc.Vector) int {
	sc := s.scratch()
	defer s.pool.put(sc)
	s.scoresInto(hv, sc.total, sc)
	return argmax(sc.total)
}

// PredictSource classifies hv with the source ensemble only, ignoring any
// adapted model. This is the no-adapt baseline.
func (s *Snapshot) PredictSource(hv hdc.Vector) int {
	sc := s.scratch()
	defer s.pool.put(sc)
	voteInto(s.domMat, s.domains, hv, sc.total, sc)
	return argmax(sc.total)
}

// PredictBatch classifies every query concurrently on a pool of the given
// worker count (workers <= 0 means GOMAXPROCS). The whole batch is scored
// against this one snapshot, so the results are mutually consistent even
// while the publishing ensemble keeps adapting.
//
//smore:hotpath
func (s *Snapshot) PredictBatch(hvs []hdc.Vector, workers int) []int {
	out := make([]int, len(hvs))
	parallel.NewPool(workers).ForEach(len(hvs), func(i int) {
		out[i] = s.Predict(hvs[i])
	})
	return out
}

// PredictSourceBatch is PredictBatch against the source ensemble only.
func (s *Snapshot) PredictSourceBatch(hvs []hdc.Vector, workers int) []int {
	out := make([]int, len(hvs))
	parallel.NewPool(workers).ForEach(len(hvs), func(i int) {
		out[i] = s.PredictSource(hvs[i])
	})
	return out
}

// AdaptedPrototypes returns the binarized class prototypes of the active
// adapted target model, or nil when the snapshot carries none. The vectors
// are read-only views into the snapshot's immutable packed matrix, so they
// stay stable no matter how much the publishing ensemble keeps adapting.
func (s *Snapshot) AdaptedPrototypes() []hdc.Vector {
	if s.active < 0 || s.active >= len(s.targets) {
		return nil
	}
	tm := &s.targets[s.active]
	out := make([]hdc.Vector, tm.protMat.Rows())
	for c := range out {
		out[c] = tm.protMat.Row(c)
	}
	return out
}
