package model

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"go-arxiv/smore/internal/hdc"
)

// ErrNoCheckpoint marks a Rollback with no checkpointed state to restore —
// a state conflict (HTTP 409 at the serving layer), like ErrNotTrained.
var ErrNoCheckpoint = errors.New("model: no checkpoint to roll back to")

// maxTargetName bounds target names, both on SpawnTarget and on load, so
// names stay cheap to serialize and safe in logs and metrics labels.
const maxTargetName = 64

// TargetInfo describes one adapted target domain for stats surfaces; every
// Snapshot lists them (Snapshot.Targets).
type TargetInfo struct {
	Name   string `json:"name"`
	Folds  int64  `json:"folds"`
	Active bool   `json:"active"` // the current fold destination
	Ready  bool   `json:"ready"`  // initialized by a fold; votes and persists
}

func (m *Ensemble) findTargetLocked(name string) *targetModel {
	for _, t := range m.targets {
		if t.name == name {
			return t
		}
	}
	return nil
}

// addTargetLocked appends a fresh pending target under name (empty means the
// next auto-generated "t<n>") and makes it the active fold destination. It
// does not checkpoint; that is SpawnTarget's job. Callers must hold m.mu and
// have checked the name is free.
func (m *Ensemble) addTargetLocked(name string) *targetModel {
	for name == "" {
		candidate := fmt.Sprintf("t%d", m.spawnSeq)
		m.spawnSeq++
		if m.findTargetLocked(candidate) == nil {
			name = candidate
		}
	}
	t := &targetModel{domainModel: newDomainModel(-1, m.cfg), name: name}
	m.targets = append(m.targets, t)
	m.active = len(m.targets) - 1
	return t
}

// SpawnTarget checkpoints the current adapted state and opens a fresh target
// domain under name (empty means the next auto-generated "t<n>"), making it
// the active fold destination; the next fold initializes it from the
// similarity-weighted source mixture of its own batch. When retire is true
// and the spawn pushes the target count past maxTargets (> 0), the
// least-recently-folded non-active target is retired in the same transition.
// Rollback restores the checkpointed pre-spawn state byte-identically. Folds
// serialize with spawns on the ensemble mutex, so a fold in flight completes
// into its target before that target can be retired.
func (m *Ensemble) SpawnTarget(name string, maxTargets int, retire bool) (spawned, retired string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.domains) == 0 {
		return "", "", fmt.Errorf("%w: SpawnTarget before Train", ErrNotTrained)
	}
	if len(name) > maxTargetName {
		return "", "", fmt.Errorf("%w: target name %d bytes long exceeds maximum %d", ErrInvalidTargets, len(name), maxTargetName)
	}
	if name != "" && m.findTargetLocked(name) != nil {
		return "", "", fmt.Errorf("%w: target %q already exists", ErrInvalidTargets, name)
	}
	if err := m.checkpointLocked(); err != nil {
		return "", "", err
	}
	t := m.addTargetLocked(name)
	if retire && maxTargets > 0 && len(m.targets) > maxTargets {
		if victim := m.lruTargetLocked(); victim != nil {
			retired = victim.name
			m.targets = slices.DeleteFunc(m.targets, func(o *targetModel) bool { return o == victim })
			m.active = len(m.targets) - 1 // the spawn, appended last
		}
	}
	m.publish()
	return t.name, retired, nil
}

// lruTargetLocked picks the least-recently-folded target other than the
// active one. Callers must hold m.mu.
func (m *Ensemble) lruTargetLocked() *targetModel {
	var victim *targetModel
	for i, t := range m.targets {
		if i == m.active {
			continue
		}
		if victim == nil || t.lastFold < victim.lastFold {
			victim = t
		}
	}
	return victim
}

// checkpointLocked captures the canonical encoding of the current state so
// Rollback can restore it. An untrained ensemble cannot be encoded (and has
// nothing to protect), so spawning before Train fails earlier. Callers must
// hold m.mu.
func (m *Ensemble) checkpointLocked() error {
	b, err := m.encodeLocked(nil)
	if err != nil {
		return fmt.Errorf("model: checkpointing for rollback: %w", err)
	}
	m.checkpoint = b
	return nil
}

// Rollback restores the state checkpointed by the most recent SpawnTarget —
// configuration, strategy, source domains, and the full pre-spawn target
// set — byte-identically (the codec is canonical). The checkpoint survives
// the rollback, so repeating it is idempotent. With no checkpoint it returns
// ErrNoCheckpoint.
func (m *Ensemble) Rollback() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.checkpoint == nil {
		return ErrNoCheckpoint
	}
	st, _, err := readState(bytes.NewReader(m.checkpoint))
	if err != nil {
		return fmt.Errorf("model: decoding checkpoint: %w", err)
	}
	m.installLocked(st, m.checkpoint)
	return nil
}

// RestoreCheckpoint installs b as the rollback checkpoint, validating it
// through the same parser Rollback uses so a torn or foreign checkpoint file
// recovered from disk can never wedge a later rollback, and republishes so
// the snapshot carries it. The checkpoint must describe an ensemble of this
// ensemble's dimension.
func (m *Ensemble) RestoreCheckpoint(b []byte) error {
	st, _, err := readState(bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("model: invalid rollback checkpoint: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if st.cfg.Dim != m.cfg.Dim {
		return fmt.Errorf("model: rollback checkpoint dimension %d does not match model dimension %d",
			st.cfg.Dim, m.cfg.Dim)
	}
	m.checkpoint = bytes.Clone(b)
	if len(m.domains) > 0 {
		m.publish()
	}
	return nil
}

// BatchSimilarity bundles the batch into a majority hypervector and returns
// its cosine similarity to the active target's domain prototype — the signal
// the streaming drift detector tracks. ok is false when no initialized
// target exists yet (nothing to compare against). The comparison is made
// against the state before any fold of this batch, so a drift decision made
// on it can spawn a fresh target for the batch to fold into.
func (m *Ensemble) BatchSimilarity(hvs []hdc.Vector) (sim float64, ok bool, err error) {
	if len(hvs) == 0 {
		return 0, false, fmt.Errorf("%w: no target samples", ErrInvalidTargets)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, hv := range hvs {
		if hv.Dim() != m.cfg.Dim {
			return 0, false, fmt.Errorf("%w: target %d has dimension %d, model wants %d",
				ErrInvalidTargets, i, hv.Dim(), m.cfg.Dim)
		}
	}
	t := m.activeLocked()
	if t == nil || !t.ready() {
		return 0, false, nil
	}
	acc := hdc.NewAccumulator(m.cfg.Dim)
	acc.AddRows(hvs...)
	return acc.Majority().Cosine(t.domProt), true, nil
}
