package stream

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"go-arxiv/smore/internal/hdc"
)

// ErrUnknownDriftPolicy marks a drift-policy spec that does not resolve to
// a registered policy — a caller error (HTTP 400 at the serving layer).
var ErrUnknownDriftPolicy = errors.New("stream: unknown drift policy")

// SimFunc computes the similarity signal the drift detector tracks: the
// cosine of the bundled batch against the active target's domain prototype
// (model.Ensemble.BatchSimilarity behind whatever locking the model needs).
// ok is false when no initialized target exists yet. It runs on the worker
// goroutine before the batch is folded, so a drift decision made on it can
// redirect this very batch into a freshly spawned target.
type SimFunc func(hvs []hdc.Vector) (sim float64, ok bool, err error)

// SpawnFunc opens a fresh auto-named target domain, checkpointing the prior
// state for rollback (model.Ensemble.SpawnTarget behind the caller's
// locking). When retire is true and the spawn pushes the live target count
// past maxTargets, the least-recently-folded non-active target is retired
// in the same transition.
type SpawnFunc func(maxTargets int, retire bool) (spawned, retired string, err error)

// Drift-policy defaults: a batch whose similarity sits driftThreshold below
// the tracked EMA is a shift, but only after minFoldsBeforeSpawn folds have
// given the current target a fair chance to absorb the trajectory. The EMA
// weighs the newest batch by driftAlpha.
const (
	defaultDriftThreshold = 0.1
	minFoldsBeforeSpawn   = 2
	driftAlpha            = 0.3

	// DefaultMaxTargets caps the live target set under spawn+retire when
	// the caller does not choose a bound.
	DefaultMaxTargets = 4
)

// DriftPolicy decides when the streaming adapter opens a fresh target
// domain. The zero value is "none": it never spawns. With Spawn set, a batch
// whose similarity to the active target drops more than Threshold (0 means
// 0.1) below the tracked EMA opens a fresh target, once the active target
// has absorbed minFoldsBeforeSpawn folds; with Retire set too, the spawn
// retires the least-recently-folded target once the live set exceeds
// MaxTargets. ParseDriftPolicy builds the registered policies by name.
type DriftPolicy struct {
	Spawn     bool
	Retire    bool
	Threshold float64
}

// Name returns the policy's registered name.
func (p DriftPolicy) Name() string {
	switch {
	case !p.Spawn:
		return "none"
	case p.Retire:
		return "spawn+retire"
	}
	return "spawn"
}

// shouldSpawn sees the similarity EMA tracked so far (always initialized),
// the incoming batch's similarity, and how many folds the active target has
// received since it became active.
func (p DriftPolicy) shouldSpawn(ema, sim float64, folds int64) bool {
	thr := p.Threshold
	if thr == 0 {
		thr = defaultDriftThreshold
	}
	return p.Spawn && folds >= minFoldsBeforeSpawn && sim < ema-thr
}

// DriftPolicyNames lists the registered drift policies.
func DriftPolicyNames() []string { return []string{"none", "spawn", "spawn+retire"} }

// ParseDriftPolicy resolves a drift-policy spec. The grammar is
//
//	none | spawn[:threshold] | spawn+retire[:threshold]
//
// where the optional threshold (a float in (0,1]) overrides the similarity
// drop that counts as a shift. The empty spec means none.
func ParseDriftPolicy(spec string) (DriftPolicy, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	thr := 0.0
	if hasArg {
		v, err := strconv.ParseFloat(arg, 64)
		if err != nil || !(v > 0 && v <= 1) {
			return DriftPolicy{}, fmt.Errorf("%w: threshold %q must be a float in (0,1]", ErrUnknownDriftPolicy, arg)
		}
		thr = v
	}
	switch name {
	case "", "none":
		if hasArg {
			return DriftPolicy{}, fmt.Errorf("%w: policy none takes no threshold", ErrUnknownDriftPolicy)
		}
		return DriftPolicy{}, nil
	case "spawn":
		return DriftPolicy{Spawn: true, Threshold: thr}, nil
	case "spawn+retire":
		return DriftPolicy{Spawn: true, Retire: true, Threshold: thr}, nil
	}
	return DriftPolicy{}, fmt.Errorf("%w: %q (have: %s)", ErrUnknownDriftPolicy, name, strings.Join(DriftPolicyNames(), ", "))
}

// driftState is the adapter's similarity-trajectory tracking, guarded by
// the adapter mutex like the rest of the books.
type driftState struct {
	ema     float64 // EMA of batch-vs-active-target similarity
	emaInit bool    // false until the first post-(re)spawn measurement
	folds   int64   // successful folds since the active target last changed
}

// observe folds one batch similarity into the trajectory and reports
// whether the policy wants a fresh target for this batch. On a spawn
// decision the trajectory resets: the EMA belonged to the target being left
// behind, and the new target starts measuring from its next batch.
func (d *driftState) observe(p DriftPolicy, sim float64) (spawn bool) {
	if d.emaInit && p.shouldSpawn(d.ema, sim, d.folds) {
		d.ema, d.emaInit, d.folds = 0, false, 0
		return true
	}
	if !d.emaInit {
		d.ema, d.emaInit = sim, true
	} else {
		d.ema = driftAlpha*sim + (1-driftAlpha)*d.ema
	}
	return false
}

// ResetDrift clears the similarity trajectory and the folds-on-target
// counter — the serving layer calls it after a model rollback so the
// detector starts measuring the restored target fresh instead of comparing
// it against the abandoned trajectory. Cumulative spawn/retire counters are
// history and survive.
func (a *Adapter) ResetDrift() {
	a.mu.Lock()
	a.drift = driftState{}
	a.mu.Unlock()
}
