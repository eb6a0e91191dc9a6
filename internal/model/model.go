// Package model implements SMORE's associative-memory classifier and its
// similarity-based domain adaptation. Training builds one class-prototype
// set per source domain plus a domain prototype (the bundle of all of the
// domain's samples). Inference on an unseen domain weights every source
// model by the similarity of the query to that domain's prototype.
// Adaptation scores unlabeled target samples against the ensemble,
// pseudo-labels the high-confidence ones, and folds them into a dedicated
// target model with similarity-proportional weights.
package model

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/parallel"
)

// ErrNotTrained marks operations that need a trained ensemble first — a
// state conflict (HTTP 409 at the serving layer), not a bad request.
var ErrNotTrained = errors.New("model: not trained")

// ErrInvalidTargets marks adaptation inputs that can never succeed (empty
// batch, dimension mismatch) — a caller error (HTTP 400 at the serving
// layer), distinct from state conflicts like ErrNotTrained.
var ErrInvalidTargets = errors.New("model: invalid targets")

// ErrInvalidConfig marks configuration values Validate rejects, so callers
// (the serving layer mapping upload errors to HTTP 400, the CLI) can detect
// a config problem with errors.Is instead of string matching.
var ErrInvalidConfig = errors.New("model: invalid config")

// Config parameterizes a Model.
type Config struct {
	Dim     int // hypervector dimension, must match the encoder
	Classes int // number of classes

	// RetrainEpochs is how many perceptron-style passes Train makes over
	// the labeled data after the initial single-shot bundling.
	RetrainEpochs int

	// AdaptEpochs is how many passes adaptation makes over the unlabeled
	// target samples.
	AdaptEpochs int

	// Confidence is the minimum similarity margin between the best and
	// second-best class for a target sample to be pseudo-labeled.
	Confidence float64

	// AdaptRate scales the similarity-proportional weight of each
	// pseudo-labeled update.
	AdaptRate float64

	// TopFrac caps, per pseudo-class and per epoch, the fraction of
	// confident samples actually applied (most-confident first). This
	// keeps one noisy class from flooding the update and collapsing the
	// prototypes. Zero means the default of 0.5.
	TopFrac float64
}

// Validate reports the first configuration error, if any. Every failure
// wraps ErrInvalidConfig.
func (c Config) Validate() error {
	if err := hdc.CheckDim(c.Dim); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	switch {
	case c.Classes < 2:
		return fmt.Errorf("%w: Classes %d < 2", ErrInvalidConfig, c.Classes)
	case c.RetrainEpochs < 0:
		return fmt.Errorf("%w: RetrainEpochs %d < 0", ErrInvalidConfig, c.RetrainEpochs)
	case c.AdaptEpochs < 1:
		return fmt.Errorf("%w: AdaptEpochs %d < 1", ErrInvalidConfig, c.AdaptEpochs)
	case !(c.Confidence >= 0 && c.Confidence <= 1): // rejects NaN too
		return fmt.Errorf("%w: Confidence %v outside [0,1]", ErrInvalidConfig, c.Confidence)
	// The bounds rail against hdc's fixed-point accumulator: rates below
	// 1/128 can quantize every update to a no-op (the per-sample weight is
	// AdaptRate*(1+sim)/2, and the accumulator resolves 1/256 steps), and
	// rates above 2^20 exceed its weight range. NaN/Inf fail both bounds.
	case !(c.AdaptRate >= 1.0/128 && c.AdaptRate <= 1<<20):
		return fmt.Errorf("%w: AdaptRate %v outside [1/128, 2^20]", ErrInvalidConfig, c.AdaptRate)
	case !(c.TopFrac >= 0 && c.TopFrac <= 1):
		return fmt.Errorf("%w: TopFrac %v outside [0,1]", ErrInvalidConfig, c.TopFrac)
	}
	return nil
}

// Sample is one encoded training example.
type Sample struct {
	HV     hdc.Vector
	Class  int
	Domain int
}

// domainModel is the associative memory of a single domain.
type domainModel struct {
	id         int
	classAcc   []*hdc.Accumulator
	classCount []int64 // training samples (or pseudo-labels) seen per class

	// protMat packs the binarized class prototypes row-major into one
	// contiguous allocation, rebuilt in place by rebuildPrototypes, so
	// scores streams a single cache-friendly popcount pass over all
	// classes instead of chasing per-class heap slices.
	protMat   *hdc.Matrix
	classProt []hdc.Vector // row views into protMat, shared storage
	domAcc    *hdc.Accumulator
	domProt   hdc.Vector
}

func newDomainModel(id int, cfg Config) *domainModel {
	dm := &domainModel{
		id:         id,
		classAcc:   make([]*hdc.Accumulator, cfg.Classes),
		classCount: make([]int64, cfg.Classes),
		domAcc:     hdc.NewAccumulator(cfg.Dim),
	}
	for c := range dm.classAcc {
		dm.classAcc[c] = hdc.NewAccumulator(cfg.Dim)
	}
	return dm
}

// rebuildPrototypes binarizes the accumulators straight into the packed
// prototype matrix (allocating it on first use), overwriting the previous
// prototypes in place.
func (dm *domainModel) rebuildPrototypes() {
	if dm.protMat == nil {
		dim := dm.domAcc.Dim()
		dm.protMat = hdc.NewMatrix(len(dm.classAcc), dim)
		dm.classProt = make([]hdc.Vector, len(dm.classAcc))
		for c := range dm.classProt {
			dm.classProt[c] = dm.protMat.Row(c)
		}
		dm.domProt = hdc.New(dim)
	}
	for c, acc := range dm.classAcc {
		row := dm.protMat.Row(c)
		acc.MajorityInto(&row)
	}
	dm.domAcc.MajorityInto(&dm.domProt)
}

// scores fills dst with the cosine similarity of hv to each class prototype
// in one contiguous kernel pass (see protoScores for the never-trained-class
// -Inf exclusion).
func (dm *domainModel) scores(hv hdc.Vector, dst []float64) {
	protoScores(dm.protMat, dm.classCount, hv, dst)
}

// targetModel is one named continual-adaptation target domain: a domainModel
// plus the bookkeeping the drift machinery needs. A target spawned by
// SpawnTarget starts pending (protMat nil) and is initialized from the
// similarity-weighted source mixture by the first fold addressed to it;
// pending targets take no part in voting or persistence.
type targetModel struct {
	*domainModel
	name     string
	folds    int64 // folds applied to this target
	lastFold int64 // ensemble foldClock at the most recent fold; drives LRU retirement
}

// ready reports whether the target has been initialized by a fold and
// therefore participates in voting and persistence.
func (t *targetModel) ready() bool { return t.protMat != nil }

// Ensemble is the multi-domain associative memory: one model per source
// domain, combined at inference time by similarity-weighted voting, plus a
// set of named adapted target models (continual adaptation spawns one per
// detected distribution shift; see SpawnTarget/Rollback).
//
// Concurrency: the ensemble is a copy-on-write shadow behind an immutable
// published Snapshot. Mutators — Train, SetStrategy, Adapt*, ReadFrom,
// Encode (and WriteTo), SpawnTarget, Rollback, RestoreCheckpoint — serialize
// on an internal mutex, fold into the shadow state, and publish a fresh
// Snapshot with one atomic pointer swap. Reads go through that snapshot
// (Snapshot, Adapted, Config; the strategy, the target list, the rollback
// checkpoint and the version ride on it) and are completely lock-free, so
// predictions and stats never stall behind an adaptation fold and always see
// either the state before a fold or after it, never a half-rebuilt
// prototype.
type Ensemble struct {
	mu      sync.Mutex // serializes mutators; read paths never take it
	cfg     Config
	domains []*domainModel
	domMat  *hdc.Matrix // packed source domain prototypes for domainWeights

	// targets is the set of adapted target domains, in spawn order. active
	// indexes the fold destination (-1 when none). foldClock is the logical
	// clock behind LRU retirement; spawnSeq numbers auto-generated target
	// names.
	// checkpoint holds the canonical encoding of the state captured by the
	// last SpawnTarget, for Rollback; nil when none exists.
	targets    []*targetModel
	active     int
	spawnSeq   int
	foldClock  int64
	checkpoint []byte

	// version counts publishes; each snapshot carries the value it was
	// published at.
	version uint64

	// strategy is the pluggable adaptation recipe, every piece filled in.
	strategy Strategy

	snap atomic.Pointer[Snapshot] // current published read-only view
	pool scratchPool              // zero-alloc scoring scratch, shared across snapshots
}

// publish deep-copies the current prototype state into a fresh immutable
// Snapshot, stamped with the next version, the strategy, the target list and
// the rollback checkpoint, and swaps it in as the served view. Callers must
// hold m.mu and have rebuilt the prototypes first.
//
//smore:locked
func (m *Ensemble) publish() {
	m.version++
	s := &Snapshot{
		cfg:        m.cfg,
		domains:    make([]snapDomain, len(m.domains)),
		domMat:     m.domMat.Clone(),
		active:     -1,
		version:    m.version,
		strategy:   m.strategy,
		infos:      make([]TargetInfo, len(m.targets)),
		checkpoint: m.checkpoint,
		pool:       &m.pool,
	}
	for i, dm := range m.domains {
		s.domains[i] = snapDomain{
			protMat:    dm.protMat.Clone(),
			classCount: append([]int64(nil), dm.classCount...),
		}
	}
	// Only ready targets vote; a pending spawn has no prototypes yet.
	for i, t := range m.targets {
		s.infos[i] = TargetInfo{Name: t.name, Folds: t.folds, Active: i == m.active, Ready: t.ready()}
		if !t.ready() {
			continue
		}
		if i == m.active {
			s.active = len(s.targets)
		}
		s.targets = append(s.targets, snapDomain{
			protMat:    t.protMat.Clone(),
			classCount: append([]int64(nil), t.classCount...),
		})
	}
	if len(s.targets) > 1 {
		// Pack the target domain prototypes so the multi-target vote can
		// weight every target in one kernel pass, mirroring domMat.
		s.tgtMat = hdc.NewMatrix(len(s.targets), m.cfg.Dim)
		row := 0
		for _, t := range m.targets {
			if !t.ready() {
				continue
			}
			s.tgtMat.SetRow(row, t.domProt)
			row++
		}
	}
	m.snap.Store(s)
}

// activeLocked returns the current fold-destination target, or nil when none
// exists. Callers must hold m.mu.
func (m *Ensemble) activeLocked() *targetModel {
	if m.active < 0 || m.active >= len(m.targets) {
		return nil
	}
	return m.targets[m.active]
}

// Snapshot returns the currently published immutable view, or nil before
// Train (or a successful ReadFrom) has run. The snapshot's scoring methods
// are lock-free and safe for any number of concurrent callers; hold it to
// score a whole batch against one consistent model state.
func (m *Ensemble) Snapshot() *Snapshot { return m.snap.Load() }

// rebuildDomainMatrix packs the source domain prototypes row-major so
// domainWeights scores them in one kernel pass. Called whenever the set of
// source domains (re)forms: after Train and after ReadFrom.
func (m *Ensemble) rebuildDomainMatrix() {
	m.domMat = hdc.NewMatrix(len(m.domains), m.cfg.Dim)
	for i, dm := range m.domains {
		m.domMat.SetRow(i, dm.domProt)
	}
}

// New returns an untrained ensemble.
func New(cfg Config) (*Ensemble, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Ensemble{cfg: cfg, active: -1, strategy: DefaultStrategy()}, nil
}

// SetStrategy installs the adaptation strategy used by subsequent Adapt*
// calls (nil pieces fall back to the default recipe). The strategy is part of
// the encoded bytes, so on a trained ensemble the change publishes like any
// other; before Train it only installs. It waits for an adaptation fold in
// flight, which finishes under the strategy it started with.
func (m *Ensemble) SetStrategy(s Strategy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.strategy = s.withDefaults()
	if len(m.domains) > 0 {
		m.publish()
	}
}

// Config returns the ensemble's configuration. Like every other read path
// it goes through the published snapshot, so it is safe concurrently with
// mutators (ReadFrom replaces cfg); before the first Train/ReadFrom there
// is no snapshot yet and it falls back to the mutator lock.
func (m *Ensemble) Config() Config {
	if s := m.snap.Load(); s != nil {
		return s.cfg
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg
}

// Train builds per-domain class prototypes from labeled samples: a
// single-shot bundling pass followed by cfg.RetrainEpochs perceptron-style
// correction passes that add each misclassified sample to its true class
// and subtract it from the predicted class.
func (m *Ensemble) Train(samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("model: no training samples")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	byDomain := map[int]*domainModel{}
	for _, s := range samples {
		if s.Class < 0 || s.Class >= m.cfg.Classes {
			return fmt.Errorf("model: class %d outside [0,%d)", s.Class, m.cfg.Classes)
		}
		dm, ok := byDomain[s.Domain]
		if !ok {
			dm = newDomainModel(s.Domain, m.cfg)
			byDomain[s.Domain] = dm
		}
		dm.classAcc[s.Class].Add(s.HV, 1)
		dm.classCount[s.Class]++
		dm.domAcc.Add(s.HV, 1)
	}
	m.domains = make([]*domainModel, 0, len(byDomain))
	for _, dm := range byDomain {
		dm.rebuildPrototypes()
		m.domains = append(m.domains, dm)
	}
	sort.Slice(m.domains, func(i, j int) bool { return m.domains[i].id < m.domains[j].id })
	m.rebuildDomainMatrix()

	scores := make([]float64, m.cfg.Classes)
	for range m.cfg.RetrainEpochs {
		for _, dm := range m.domains {
			changed := false
			for _, s := range samples {
				if s.Domain != dm.id {
					continue
				}
				dm.scores(s.HV, scores)
				pred := argmax(scores)
				if pred != s.Class {
					dm.classAcc[s.Class].Add(s.HV, 1)
					dm.classAcc[pred].Add(s.HV, -1)
					changed = true
				}
			}
			if changed {
				dm.rebuildPrototypes()
			}
		}
	}
	m.publish()
	return nil
}

// simWeight maps a cosine similarity to a non-negative vote weight through
// (1+cos)/2, clamping NaN to similarity 0 (the unrelated-vector score) so a
// degenerate prototype cannot poison the normalized weight vector.
func simWeight(cos float64) float64 {
	if math.IsNaN(cos) {
		cos = 0
	}
	return (1 + cos) / 2
}

// domainWeights returns similarity-proportional weights of hv against every
// source domain prototype (see weightsInto). Allocating, used off the hot
// path (adaptation setup). Callers must hold m.mu.
func (m *Ensemble) domainWeights(hv hdc.Vector) []float64 {
	w := make([]float64, len(m.domains))
	weightsInto(m.domMat, hv, w)
	return w
}

// AdaptStats reports what the adaptation loop did.
type AdaptStats struct {
	Epochs       int `json:"epochs"`
	PseudoLabels int `json:"pseudo_labels"` // confident updates applied across all epochs
	Skipped      int `json:"skipped"`       // samples below the confidence margin
}

// Accumulate folds another run's counters into s (the streaming adapter
// sums per-fold stats into its cumulative books with it).
func (s *AdaptStats) Accumulate(o AdaptStats) {
	s.Epochs += o.Epochs
	s.PseudoLabels += o.PseudoLabels
	s.Skipped += o.Skipped
}

// AdaptBatch runs SMORE's similarity-based adaptation on unlabeled target
// samples. The target model starts as the similarity-weighted mixture of
// the source class accumulators (weighted by how close the bundled target
// distribution is to each source domain prototype). Each epoch then scores
// every target sample and hands the score vectors to the installed
// Strategy: the ConfidenceRule picks pseudo-label candidates, which pass
// when their confidence reaches cfg.Confidence, up to the per-class TopFrac
// cap, and the UpdateRule folds the accepted samples into the target
// accumulators, one Apply call per pseudo-class holding all of that class's
// accepted samples, so the bundle and ema rules weight them with one
// hdc.Accumulator.AddWeighted batch.
// The default strategy reproduces the paper's fixed recipe byte-for-byte:
// best-vs-second-best margin against cfg.Confidence, constant TopFrac,
// similarity-weighted bundling.
//
// Scoring runs concurrently on a pool of the given worker count (workers
// <= 0 means GOMAXPROCS). Scores land in per-sample slots and candidates
// are ranked by (confidence, index), so the adapted model and the returned
// stats are byte-identical for every worker count.
func (m *Ensemble) AdaptBatch(targets []hdc.Vector, workers int) (AdaptStats, error) {
	stats, _, err := m.adapt(targets, workers, false, nil)
	return stats, err
}

// AdaptIncremental folds one more batch of unlabeled target samples into the
// existing adapted model instead of rebuilding it from the source mixture,
// so target data can arrive in batches (the streaming/serving path). The
// first call behaves exactly like AdaptBatch; later calls keep the adapted
// prototypes and extend the target domain prototype with the new batch.
// Workers <= 0 means GOMAXPROCS.
func (m *Ensemble) AdaptIncremental(targets []hdc.Vector, workers int) (AdaptStats, error) {
	stats, _, err := m.adapt(targets, workers, true, nil)
	return stats, err
}

// AdaptIncrementalWith is AdaptIncremental that first installs s, when it is
// non-nil, in the same critical section as the fold, so concurrent callers
// that select different strategies each fold under their own. A call whose
// inputs fail their checks installs nothing. It returns the snapshot the
// fold published, which names the strategy the fold ran under.
func (m *Ensemble) AdaptIncrementalWith(s *Strategy, targets []hdc.Vector, workers int) (AdaptStats, *Snapshot, error) {
	return m.adapt(targets, workers, true, s)
}

// adapt runs one adaptation fold into the active target, creating the
// implicit first target on demand, after installing s when it is non-nil,
// and returns the snapshot the fold published.
func (m *Ensemble) adapt(targets []hdc.Vector, workers int, incremental bool, s *Strategy) (AdaptStats, *Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.domains) == 0 {
		return AdaptStats{}, nil, fmt.Errorf("%w: Adapt before Train", ErrNotTrained)
	}
	if len(targets) == 0 {
		return AdaptStats{}, nil, fmt.Errorf("%w: no target samples", ErrInvalidTargets)
	}
	for i, hv := range targets {
		if hv.Dim() != m.cfg.Dim {
			return AdaptStats{}, nil, fmt.Errorf("%w: target %d has dimension %d, model wants %d",
				ErrInvalidTargets, i, hv.Dim(), m.cfg.Dim)
		}
	}
	if s != nil {
		m.strategy = s.withDefaults()
	}
	cfg, strat := m.cfg, m.strategy
	pool := parallel.NewPool(workers)
	tgt := m.activeLocked()
	if tgt == nil {
		tgt = m.addTargetLocked("")
	}
	if !incremental || !tgt.ready() {
		dm := newDomainModel(-1, cfg)
		// Bundle the target distribution and weight each source domain's
		// contribution to the initial target prototypes by its similarity.
		dm.domAcc.AddRows(targets...)
		weights := m.domainWeights(dm.domAcc.Majority())
		for i, src := range m.domains {
			for c := range dm.classAcc {
				dm.classAcc[c].AddScaled(src.classAcc[c], weights[i])
				dm.classCount[c] += src.classCount[c]
			}
		}
		dm.rebuildPrototypes()
		tgt.domainModel = dm
	} else {
		// Fold the new batch into the target domain prototype so later
		// domain-similarity decisions see the full target distribution.
		tgt.domAcc.AddRows(targets...)
		tgt.domProt = tgt.domAcc.Majority()
	}

	updater := strat.Update.NewUpdater(cfg)
	stats := AdaptStats{}
	type candidate struct {
		idx  int
		conf float64
		sim  float64
	}
	// Per-sample scoring results and scratch; slot i (and its stripe of
	// scoreBuf) is only written by the worker handling sample i.
	preds := make([]candidate, len(targets))
	confident := make([]bool, len(targets))
	byClass := make([][]candidate, cfg.Classes)
	classOf := make([]int, len(targets))
	scoreBuf := make([]float64, len(targets)*cfg.Classes)
	// One class's kept rows and similarities, handed to the updater at once.
	var keptHVs []hdc.Vector
	var keptSims []float64
	threshold, topFrac := cfg.Confidence, effTopFrac(cfg.TopFrac)
	for range cfg.AdaptEpochs {
		stats.Epochs++
		pool.ForEach(len(targets), func(i int) {
			scores := scoreBuf[i*cfg.Classes : (i+1)*cfg.Classes]
			tgt.scores(targets[i], scores)
			class, conf, sim := strat.Confidence.Assess(scores)
			confident[i] = conf >= threshold
			classOf[i] = class
			preds[i] = candidate{idx: i, conf: conf, sim: sim}
		})
		for c := range byClass {
			byClass[c] = byClass[c][:0]
		}
		for i := range targets {
			if !confident[i] {
				stats.Skipped++
				continue
			}
			byClass[classOf[i]] = append(byClass[classOf[i]], preds[i])
		}
		// Apply only the most confident fraction per pseudo-class so a
		// single over-predicted class cannot drown out the others. Ties
		// on confidence break on the sample index to keep the update
		// order fully deterministic.
		updated := false
		for c, cands := range byClass {
			if len(cands) == 0 {
				continue
			}
			slices.SortFunc(cands, func(x, y candidate) int {
				if o := cmp.Compare(y.conf, x.conf); o != 0 {
					return o
				}
				return cmp.Compare(x.idx, y.idx)
			})
			kept := cands[:min(max(1, int(float64(len(cands))*topFrac)), len(cands))]
			keptHVs, keptSims = keptHVs[:0], keptSims[:0]
			for _, cand := range kept {
				keptHVs = append(keptHVs, targets[cand.idx])
				keptSims = append(keptSims, cand.sim)
			}
			updater.Apply(tgt.classAcc, c, keptHVs, keptSims)
			tgt.classCount[c] += int64(len(kept))
			stats.PseudoLabels += len(kept)
			updated = true
		}
		updater.FinishEpoch(tgt.classAcc)
		if !updated {
			// An empty epoch implies every later epoch is empty too: the
			// prototypes didn't move, so identical scores meet the same
			// gate.
			break
		}
		tgt.rebuildPrototypes()
	}
	tgt.folds++
	m.foldClock++
	tgt.lastFold = m.foldClock
	m.publish()
	return stats, m.snap.Load(), nil
}

// rank maps a score to a total order for argmax/top2: NaN ranks with -Inf,
// below every real score, so a poisoned entry can never beat one and the
// selected indices do not depend on where the NaN sits in the slice (ties
// resolve to the lowest index).
func rank(x float64) float64 {
	if math.IsNaN(x) {
		return math.Inf(-1)
	}
	return x
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if rank(x) > rank(xs[best]) {
			best = i
		}
	}
	return best
}

// top2 returns the indices of the largest and second-largest scores. Ties
// (and NaNs, which rank below -Inf) resolve to the lowest index, so the
// result is independent of evaluation order.
func top2(xs []float64) (best, second int) {
	best, second = 0, 1
	if rank(xs[1]) > rank(xs[0]) {
		best, second = 1, 0
	}
	for i := 2; i < len(xs); i++ {
		switch {
		case rank(xs[i]) > rank(xs[best]):
			second, best = best, i
		case rank(xs[i]) > rank(xs[second]):
			second = i
		}
	}
	return best, second
}
