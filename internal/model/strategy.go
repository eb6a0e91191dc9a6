package model

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"go-arxiv/smore/internal/hdc"
)

// ErrUnknownStrategy marks a strategy name that does not resolve to a
// registered rule — a caller error (HTTP 400 at the serving layer).
var ErrUnknownStrategy = errors.New("model: unknown strategy")

// ConfidenceRule turns one sample's per-class score vector into a
// pseudo-label candidate: the predicted class, a confidence value that
// Config.Confidence is compared against, and the similarity that scales
// the update weight. Assess runs concurrently on the scoring worker pool,
// so implementations must be stateless (or otherwise safe for concurrent
// calls) and must not retain the scores slice.
type ConfidenceRule interface {
	Name() string
	Assess(scores []float64) (class int, conf, sim float64)
}

// UpdateRule decides how accepted pseudo-labeled samples fold into the
// target model's class accumulators. NewUpdater is called once per Adapt*
// call; the returned Updater may carry state across that call's epochs
// (e.g. EMA staging accumulators) and is only ever driven from a single
// goroutine, in a deterministic order.
type UpdateRule interface {
	Name() string
	NewUpdater(cfg Config) Updater
}

// Updater is the per-adaptation-run state of an UpdateRule. Apply folds
// one pseudo-class's accepted samples of an epoch into class acc[class]:
// hvs[i] with similarity sims[i], most confident first. Each epoch calls it
// at most once per class, in ascending class order, so the adapted model is
// byte-identical for every worker count; Apply may not retain hvs or sims,
// whose buffers the caller reuses. FinishEpoch runs after every accepted
// sample of an epoch has been applied, before the prototypes are rebuilt.
type Updater interface {
	Apply(acc []*hdc.Accumulator, class int, hvs []hdc.Vector, sims []float64)
	FinishEpoch(acc []*hdc.Accumulator)
}

// Strategy bundles the two pluggable pieces of the adaptation loop. The
// acceptance gate is the paper's and not pluggable: Config.Confidence and
// the per-class TopFrac cap, held constant across epochs. The zero value
// (both nil) means the default recipe — MarginConfidence + BundleUpdate —
// which reproduces the historical fixed loop byte-identically.
type Strategy struct {
	Confidence ConfidenceRule
	Update     UpdateRule
}

// fixedSchedule fills the middle slot of a strategy spec and of the
// SME2/SME3 strategy section. The gate is constant across epochs, so the
// slot accepts only this name (or empty); it keeps every spec and bundle in
// a three-part layout that a later gate piece can use.
const fixedSchedule = "constant"

// DefaultStrategy returns the paper's recipe: confidence-margin
// pseudo-labels and direct bundling updates.
func DefaultStrategy() Strategy {
	return Strategy{
		Confidence: MarginConfidence{},
		Update:     BundleUpdate{},
	}
}

// withDefaults fills nil pieces with the default recipe's.
func (s Strategy) withDefaults() Strategy {
	if s.Confidence == nil {
		s.Confidence = MarginConfidence{}
	}
	if s.Update == nil {
		s.Update = BundleUpdate{}
	}
	return s
}

// Names returns the registered names of the two pieces (nil pieces report
// the default piece's name).
func (s Strategy) Names() (confidence, update string) {
	s = s.withDefaults()
	return s.Confidence.Name(), s.Update.Name()
}

// String renders the strategy as the canonical "confidence+constant+update"
// spec accepted by ParseStrategySpec.
func (s Strategy) String() string {
	c, u := s.Names()
	return c + "+" + fixedSchedule + "+" + u
}

// isDefault reports whether the strategy is the default recipe, which is
// persisted in the legacy "SME1" layout for byte-compatibility.
func (s Strategy) isDefault() bool {
	c, u := s.Names()
	return c == "margin" && u == "bundle"
}

// ParseConfidenceRule resolves a registered confidence rule by name; the
// empty string means the default (margin).
func ParseConfidenceRule(name string) (ConfidenceRule, error) {
	switch name {
	case "", "margin":
		return MarginConfidence{}, nil
	case "entropy-cal":
		return EntropyCalConfidence{}, nil
	}
	return nil, fmt.Errorf("%w: confidence rule %q (have: %s)", ErrUnknownStrategy, name, strings.Join(ConfidenceRuleNames(), ", "))
}

// ParseUpdateRule resolves a registered update rule by name; the empty
// string means the default (bundle).
func ParseUpdateRule(name string) (UpdateRule, error) {
	switch name {
	case "", "bundle":
		return BundleUpdate{}, nil
	case "ema":
		return EMAUpdate{}, nil
	}
	return nil, fmt.Errorf("%w: update rule %q (have: %s)", ErrUnknownStrategy, name, strings.Join(UpdateRuleNames(), ", "))
}

// ConfidenceRuleNames lists the registered confidence rules.
func ConfidenceRuleNames() []string { return []string{"margin", "entropy-cal"} }

// UpdateRuleNames lists the registered update rules.
func UpdateRuleNames() []string { return []string{"bundle", "ema"} }

// ParseStrategy assembles a strategy from the three slot names; empty
// names select the default piece, and the middle slot accepts only
// "constant".
func ParseStrategy(confidence, schedule, update string) (Strategy, error) {
	c, err := ParseConfidenceRule(confidence)
	if err != nil {
		return Strategy{}, err
	}
	if schedule != "" && schedule != fixedSchedule {
		return Strategy{}, fmt.Errorf("%w: schedule %q (have: %s)", ErrUnknownStrategy, schedule, fixedSchedule)
	}
	u, err := ParseUpdateRule(update)
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{Confidence: c, Update: u}, nil
}

// ParseStrategySpec parses a "confidence+constant+update" spec (the format
// String renders). The empty spec means the default strategy.
func ParseStrategySpec(spec string) (Strategy, error) {
	if spec == "" {
		return DefaultStrategy(), nil
	}
	parts := strings.Split(spec, "+")
	if len(parts) != 3 {
		return Strategy{}, fmt.Errorf("%w: spec %q must be confidence+constant+update", ErrUnknownStrategy, spec)
	}
	return ParseStrategy(parts[0], parts[1], parts[2])
}

// MarginConfidence is the paper's rule: a sample is confident when the
// cosine margin between its best and second-best class clears the
// threshold. The similarity of the winning class weights the update.
type MarginConfidence struct{}

// Name implements ConfidenceRule.
func (MarginConfidence) Name() string { return "margin" }

// Assess implements ConfidenceRule.
func (MarginConfidence) Assess(scores []float64) (int, float64, float64) {
	best, second := top2(scores)
	return best, scores[best] - scores[second], scores[best]
}

// EntropyCalConfidence scores a sample by how peaked its class-similarity
// distribution is, calibrated to the margin threshold scale. Entropy over
// the raw (1+cos)/2 vote weights is useless here: on realistic score
// vectors — cosines clustered in a narrow positive band — those weights are
// near-uniform, so H sits within rounding of ln(n) and the confidence
// collapses below any usable margin threshold. This rule therefore
// min-shifts first — weights are s_i − s_min over the classes with
// finite scores, zeroing the weakest class and spending the entropy budget
// on the contrast that actually separates the candidates — and then scales
// the peakedness 1 − H/ln(n) by the score spread s_best − s_min, putting
// the result in cosine-difference units. For two classes this reduces
// exactly to the margin rule (H is 0, the spread is the margin), and for
// more classes it is the spread discounted by how much of the mass the
// runner-up classes hold, so Config.Confidence keeps meaning one thing
// across rules. An uninformative all-equal vector still scores exactly 0.
type EntropyCalConfidence struct{}

// Name implements ConfidenceRule.
func (EntropyCalConfidence) Name() string { return "entropy-cal" }

// Assess implements ConfidenceRule.
func (EntropyCalConfidence) Assess(scores []float64) (int, float64, float64) {
	best := argmax(scores)
	low := math.Inf(1)
	finite := 0
	for _, s := range scores {
		// Never-trained classes score -Inf (and poisoned entries NaN);
		// they carry no probability mass and must not dilute the entropy.
		if math.IsNaN(s) || math.IsInf(s, -1) {
			continue
		}
		finite++
		if s < low {
			low = s
		}
	}
	sum, wlogw := 0.0, 0.0
	for _, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, -1) {
			continue
		}
		if w := s - low; w > 0 {
			sum += w
			wlogw += w * math.Log(w)
		}
	}
	conf := 0.0
	if finite > 1 && sum > 0 {
		// H of the normalized min-shifted weights, computed without
		// materializing p: H = ln(sum) − Σ w·ln(w) / sum.
		h := math.Log(sum) - wlogw/sum
		peak := 1 - h/math.Log(float64(finite))
		if peak < 0 { // guard float rounding below the H ≤ ln(n) bound
			peak = 0
		}
		conf = peak * (rank(scores[best]) - low)
	}
	return best, conf, scores[best]
}

// effTopFrac applies the historical TopFrac default: zero means 0.5.
func effTopFrac(f float64) float64 {
	if f == 0 {
		return 0.5
	}
	return f
}

// updateWeights holds a rate and a reused buffer of per-sample update
// weights.
type updateWeights struct {
	rate float64
	buf  []float64
}

// of returns rate·(1+sim)/2 for every similarity: the closer a sample
// already is to the winning prototype, the more it reinforces it. The
// slice is valid until the next call.
func (w *updateWeights) of(sims []float64) []float64 {
	w.buf = w.buf[:0]
	for _, sim := range sims {
		w.buf = append(w.buf, w.rate*simWeight(sim))
	}
	return w.buf
}

// BundleUpdate is the paper's update: each accepted sample is added to its
// pseudo-class accumulator with weight AdaptRate·(1+sim)/2, permanently.
type BundleUpdate struct{}

// Name implements UpdateRule.
func (BundleUpdate) Name() string { return "bundle" }

// NewUpdater implements UpdateRule.
func (BundleUpdate) NewUpdater(cfg Config) Updater {
	return &bundleUpdater{updateWeights{rate: cfg.AdaptRate}}
}

type bundleUpdater struct{ weights updateWeights }

func (u *bundleUpdater) Apply(acc []*hdc.Accumulator, class int, hvs []hdc.Vector, sims []float64) {
	acc[class].AddWeighted(hvs, u.weights.of(sims))
}

func (*bundleUpdater) FinishEpoch([]*hdc.Accumulator) {}

// emaMomentum is the history weight μ of EMAUpdate.
const emaMomentum = 0.9

// EMAUpdate is a momentum prototype update in the spirit of MoSSDA's
// momentum encoder: accepted samples of one epoch are staged into per-class
// delta accumulators, and at epoch end each touched class accumulator is
// replaced by μ·acc + Δ, computed entirely on the existing accumulator
// counters via AddScaled. History decays geometrically, so the target
// prototypes track the pseudo-label stream instead of being permanently
// anchored by the earliest (least adapted) epochs.
type EMAUpdate struct{}

// Name implements UpdateRule.
func (EMAUpdate) Name() string { return "ema" }

// NewUpdater implements UpdateRule.
func (EMAUpdate) NewUpdater(cfg Config) Updater {
	return &emaUpdater{
		weights: updateWeights{rate: cfg.AdaptRate},
		dim:     cfg.Dim,
		delta:   make([]*hdc.Accumulator, cfg.Classes),
		touched: make([]bool, cfg.Classes),
	}
}

type emaUpdater struct {
	weights updateWeights
	dim     int
	delta   []*hdc.Accumulator // per-class epoch staging, lazily allocated
	touched []bool
}

func (u *emaUpdater) Apply(acc []*hdc.Accumulator, class int, hvs []hdc.Vector, sims []float64) {
	u.stage(class).AddWeighted(hvs, u.weights.of(sims))
}

// stage returns class's delta accumulator, allocating it on first use, and
// marks the class for FinishEpoch.
func (u *emaUpdater) stage(class int) *hdc.Accumulator {
	d := u.delta[class]
	if d == nil {
		d = hdc.NewAccumulator(u.dim)
		u.delta[class] = d
	}
	u.touched[class] = true
	return d
}

func (u *emaUpdater) FinishEpoch(acc []*hdc.Accumulator) {
	for c, d := range u.delta {
		if !u.touched[c] {
			continue
		}
		ema := hdc.NewAccumulator(u.dim)
		ema.AddScaled(acc[c], emaMomentum)
		ema.AddScaled(d, 1)
		acc[c] = ema
		d.Reset()
		u.touched[c] = false
	}
}
