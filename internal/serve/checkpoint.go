package serve

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"go-arxiv/smore/internal/pipeline"
)

// Durable checkpointing. Layout under Options.StateDir:
//
//	<state-dir>/<model>/MANIFEST.json           last-good generations, newest first
//	<state-dir>/<model>/gen-<seq>.smore         canonical bundle bytes (SMB1)
//	<state-dir>/<model>/gen-<seq>.rollback      drift-rollback checkpoint (SME*), optional
//
// Every file lands via pipeline.WriteFileAtomic (temp file, fsync, atomic
// rename, directory fsync), so a crash at any instant leaves either the old
// or the new generation intact — never a half-written one under its final
// name. The manifest keeps keepGenerations entries; recovery walks them
// newest-first and serves the first generation whose bundle passes the full
// SMB1/SME1/2/3 validation, so a torn or bit-flipped newest generation falls
// back to the previous good one. A manifest that is itself torn degrades to a
// directory scan.

const (
	manifestName = "MANIFEST.json"
	// keepGenerations is how many checkpoint generations survive pruning:
	// the latest plus one fallback.
	keepGenerations = 2
)

// manifest records a model's last-good checkpoint generations, newest first.
type manifest struct {
	Model       string          `json:"model"`
	Generations []manifestEntry `json:"generations"`
}

// manifestEntry names one generation's files and their SHA-256 digests. The
// bundle format has no internal checksum — a bit flip in hypervector payload
// is structurally valid — so the digest is what lets recovery reject silent
// corruption, not just truncation. Scan-path entries (manifest lost) carry no
// digest and get structural validation only.
type manifestEntry struct {
	Gen            int64  `json:"gen"`
	Bundle         string `json:"bundle"`
	BundleSHA256   string `json:"sha256,omitempty"`
	Rollback       string `json:"rollback,omitempty"`
	RollbackSHA256 string `json:"rollback_sha256,omitempty"`
}

func sha256hex(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// verifyFile reads path and checks it against the manifest digest; an empty
// digest (scan fallback) skips the check.
func verifyFile(path, wantSHA string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if wantSHA != "" && sha256hex(raw) != wantSHA {
		return nil, fmt.Errorf("%s: SHA-256 mismatch (corrupt checkpoint file)", path)
	}
	return raw, nil
}

func genFile(gen int64) string      { return fmt.Sprintf("gen-%08d.smore", gen) }
func rollbackFile(gen int64) string { return fmt.Sprintf("gen-%08d.rollback", gen) }

// recoveredModel is one model successfully recovered from the state dir: its
// validated bundle (with the rollback checkpoint already restored into the
// model, when one survived) and the generation it came from.
type recoveredModel struct {
	name   string
	bundle *pipeline.Bundle
	gen    int64
	mtime  time.Time
}

// stateStore persists and recovers instance checkpoints under one root dir.
type stateStore struct {
	dir       string
	interval  time.Duration
	foldEvery int
	logf      func(format string, args ...any)

	// kick carries change-count trigger requests, by model name, from fold
	// closures to the checkpointer goroutine; sends are non-blocking (a full
	// channel means a checkpoint is already pending).
	kick     chan string
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// mu makes the store the state dir's one writer: a checkpoint holds it
	// from the registry lookup through the save, forget while it removes a
	// model's directory, so generations land in order and an instance that
	// left the registry never writes again. It also guards gens.
	mu   sync.Mutex
	gens map[string]int64 // highest generation ever used per model
}

func newStateStore(opt Options, logf func(string, ...any)) (*stateStore, error) {
	if err := os.MkdirAll(opt.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating state dir: %w", err)
	}
	return &stateStore{
		dir:       opt.StateDir,
		interval:  opt.CheckpointInterval,
		foldEvery: opt.CheckpointFolds,
		logf:      logf,
		kick:      make(chan string, 16),
		stop:      make(chan struct{}),
		gens:      map[string]int64{},
	}, nil
}

// afterFold runs after each successful stream fold and requests an
// asynchronous checkpoint once inst's snapshot version is a positive
// multiple of foldEvery past the version its newest generation holds (a
// multiple, so a failed checkpoint is retried at the next one). Never
// blocks: with the channel full a checkpoint is already queued.
func (st *stateStore) afterFold(inst *instance) {
	if st.foldEvery <= 0 {
		return
	}
	v, saved := inst.model.Snapshot().Version(), inst.ckptVersion.Load()
	if v <= saved || (v-saved)%uint64(st.foldEvery) != 0 {
		return
	}
	select {
	case st.kick <- inst.name:
	default:
	}
}

// save durably persists one checkpoint generation: bundle bytes, the
// optional rollback checkpoint, then the manifest naming them — in that
// order, so the manifest never references files that might not exist. Old
// generations past keepGenerations are pruned only after the new manifest is
// durable. Generation numbers are monotonic across restarts (recovery seeds
// gens with the highest number found on disk, valid or torn), so a new save
// can never collide with — or sort below — a leftover file. Callers hold
// st.mu.
func (st *stateStore) save(name string, bundle, rollback []byte) (int64, error) {
	dir := filepath.Join(st.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	st.gens[name]++
	gen := st.gens[name]
	entry := manifestEntry{Gen: gen, Bundle: genFile(gen), BundleSHA256: sha256hex(bundle)}
	if err := pipeline.WriteFileAtomic(filepath.Join(dir, entry.Bundle), bundle); err != nil {
		return 0, err
	}
	if rollback != nil {
		entry.Rollback = rollbackFile(gen)
		entry.RollbackSHA256 = sha256hex(rollback)
		if err := pipeline.WriteFileAtomic(filepath.Join(dir, entry.Rollback), rollback); err != nil {
			return 0, err
		}
	}
	man := st.readManifest(name)
	entries := append([]manifestEntry{entry}, man.Generations...)
	var prune []manifestEntry
	if len(entries) > keepGenerations {
		prune = entries[keepGenerations:]
		entries = entries[:keepGenerations]
	}
	data, err := json.MarshalIndent(manifest{Model: name, Generations: entries}, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := pipeline.WriteFileAtomic(filepath.Join(dir, manifestName), data); err != nil {
		return 0, err
	}
	for _, e := range prune {
		// Best-effort: a leftover pruned file is garbage, not corruption —
		// recovery only trusts the manifest (or, scanning, validates bytes).
		os.Remove(filepath.Join(dir, e.Bundle))
		if e.Rollback != "" {
			os.Remove(filepath.Join(dir, e.Rollback))
		}
	}
	return gen, nil
}

// forget removes a model's durable state (DELETE /v1/models/{name}). The
// registry has already dropped the name, so once forget holds st.mu no
// checkpoint can write the directory back.
func (st *stateStore) forget(name string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.gens, name)
	if err := os.RemoveAll(filepath.Join(st.dir, name)); err != nil {
		st.logf("serve: removing state of deleted model %q: %v", name, err)
	}
}

// readManifest parses a model's manifest; a missing or torn manifest yields
// an empty one (recovery then falls back to scanning the directory).
func (st *stateStore) readManifest(name string) manifest {
	var man manifest
	data, err := os.ReadFile(filepath.Join(st.dir, name, manifestName))
	if err != nil {
		return man
	}
	if err := json.Unmarshal(data, &man); err != nil {
		st.logf("serve: state: model %q manifest unreadable (%v); falling back to directory scan", name, err)
		return manifest{}
	}
	return man
}

// scanGenerations lists a model dir's gen-*.smore files as manifest entries,
// newest first — the recovery path when the manifest itself was lost.
func (st *stateStore) scanGenerations(name string) []manifestEntry {
	dir := filepath.Join(st.dir, name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []manifestEntry
	for _, ent := range ents {
		var gen int64
		if n, err := fmt.Sscanf(ent.Name(), "gen-%d.smore", &gen); n != 1 || err != nil {
			continue
		}
		e := manifestEntry{Gen: gen, Bundle: ent.Name()}
		if _, err := os.Stat(filepath.Join(dir, rollbackFile(gen))); err == nil {
			e.Rollback = rollbackFile(gen)
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Gen > out[j].Gen })
	return out
}

// recoverAll scans the state dir and recovers the last good generation of
// every model found there. Unrecoverable models (every generation torn) are
// logged and skipped — serving starts from the boot bundle instead of
// refusing to start. The result is sorted most-recently-checkpointed first
// so registry slots under MaxModels go to the freshest models.
func (st *stateStore) recoverAll() []recoveredModel {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		st.logf("serve: state: reading %s: %v", st.dir, err)
		return nil
	}
	var out []recoveredModel
	for _, ent := range ents {
		if !ent.IsDir() || !modelName.MatchString(ent.Name()) {
			continue
		}
		name := ent.Name()
		// Seed the generation counter from everything on disk — including
		// torn files — before any new save can hand out a colliding number.
		maxGen := int64(0)
		for _, e := range st.scanGenerations(name) {
			maxGen = max(maxGen, e.Gen)
		}
		if man := st.readManifest(name); len(man.Generations) > 0 {
			maxGen = max(maxGen, man.Generations[0].Gen)
		}
		st.mu.Lock()
		st.gens[name] = max(st.gens[name], maxGen)
		st.mu.Unlock()
		if rec, ok := st.recoverModel(name); ok {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].mtime.After(out[j].mtime) })
	return out
}

// recoverModel walks a model's generations newest-first and returns the
// first one whose bundle survives full validation. The rollback checkpoint
// rides along when it validates too; a torn rollback degrades to "no
// checkpoint" (rollback answers 409) rather than rejecting the bundle.
func (st *stateStore) recoverModel(name string) (recoveredModel, bool) {
	dir := filepath.Join(st.dir, name)
	candidates := st.readManifest(name).Generations
	if len(candidates) == 0 {
		candidates = st.scanGenerations(name)
	}
	for _, c := range candidates {
		path := filepath.Join(dir, c.Bundle)
		b, err := func() (*pipeline.Bundle, error) {
			if _, err := verifyFile(path, c.BundleSHA256); err != nil {
				return nil, err
			}
			return pipeline.LoadBundleFile(path)
		}()
		if err != nil {
			st.logf("serve: state: model %q generation %d rejected: %v", name, c.Gen, err)
			continue
		}
		if c.Rollback != "" {
			rb, err := verifyFile(filepath.Join(dir, c.Rollback), c.RollbackSHA256)
			if err == nil {
				err = b.Model.RestoreCheckpoint(rb)
			}
			if err != nil {
				st.logf("serve: state: model %q generation %d rollback checkpoint dropped: %v", name, c.Gen, err)
			}
		}
		info, err := os.Stat(path)
		mtime := time.Time{}
		if err == nil {
			mtime = info.ModTime()
		}
		return recoveredModel{name: name, bundle: b, gen: c.Gen, mtime: mtime}, true
	}
	if len(candidates) > 0 {
		st.logf("serve: state: model %q has no recoverable generation; starting clean", name)
	}
	return recoveredModel{}, false
}

// runCheckpointer is the background checkpoint loop: a periodic pass over
// instances whose version moved (CheckpointInterval) plus on-demand
// change-count kicks. It exits on Close, which then takes the final full
// checkpoint itself.
func (s *Server) runCheckpointer() {
	defer s.store.wg.Done()
	var tick <-chan time.Time
	if s.store.interval > 0 {
		t := time.NewTicker(s.store.interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.store.stop:
			return
		case <-tick:
			s.checkpointAll(false)
		case name := <-s.store.kick:
			s.checkpointModel(name, false)
		}
	}
}

// checkpointAll checkpoints registered instances — all of them when force is
// set (shutdown), otherwise only those whose snapshot version moved since
// their newest generation. A model that leaves the registry meanwhile is
// skipped. Returns the first failure.
func (s *Server) checkpointAll(force bool) error {
	var first error
	for _, inst := range s.reg.instances() {
		_, err := s.checkpointModel(inst.name, force)
		if err != nil && !errors.Is(err, errModelGone) && first == nil {
			first = err
		}
	}
	return first
}

// errModelGone reports a checkpoint of a name no longer registered.
var errModelGone = errors.New("model left the registry")

// checkpointModel saves the instance registered under name as a new durable
// generation: its canonical bundle bytes and the rollback checkpoint of the
// same snapshot. Holding the store mutex from the lookup through the save
// keeps checkpoints of one model in order and makes a name that is gone
// write nothing (errModelGone). Unless force is set, an instance whose
// version has not moved since its newest generation is skipped (generation
// 0). The marshal runs under the model's own mutex and the file I/O outside
// it, which the lockdiscipline analyzer enforces.
func (s *Server) checkpointModel(name string, force bool) (int64, error) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	inst := s.reg.lookup(name)
	if inst == nil {
		return 0, errModelGone
	}
	if !force && inst.model.Snapshot().Version() == inst.ckptVersion.Load() {
		return 0, nil
	}
	defer s.met.stage("checkpoint")()
	raw, snap, err := inst.encode()
	var gen int64
	if err == nil {
		gen, err = s.store.save(name, raw, snap.CheckpointBytes())
	}
	if err != nil {
		inst.ckptFailures.Add(1)
		s.reg.logf("serve: checkpointing model %q: %v", name, err)
		return 0, err
	}
	inst.ckptVersion.Store(snap.Version())
	inst.ckptGen.Store(gen)
	inst.ckptSaves.Add(1)
	s.reg.logf("serve: model %q checkpointed (generation %d)", name, gen)
	return gen, nil
}

// checkpoint is POST /v1/checkpoint and /v1/models/{name}/checkpoint: an
// explicit durable checkpoint of the resolved instance. 409 no_state_dir
// when durability is disabled, 500 checkpoint_failed when persistence fails
// (the previous good generation is untouched either way).
func (s *Server) checkpoint(inst *instance, w *responseRecorder, r *http.Request) error {
	if s.store == nil {
		return &httpError{http.StatusConflict, codeNoStateDir, "durable checkpoints are disabled; start the server with -state-dir"}
	}
	gen, err := s.checkpointModel(inst.name, true)
	switch {
	case errors.Is(err, errModelGone):
		return &httpError{http.StatusNotFound, codeModelNotFound, fmt.Sprintf("model %q not found", inst.name)}
	case err != nil:
		return &httpError{http.StatusInternalServerError, codeCheckpointFailed, err.Error()}
	}
	return writeJSON(w, http.StatusOK, map[string]any{
		"model":      inst.name,
		"generation": gen,
	})
}
