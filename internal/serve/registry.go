package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/fault"
	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
	"go-arxiv/smore/internal/stream"
)

// DefaultModel is the registry name of the bundle the server booted with.
// It backs the unnamed routes (/v1/predict, /v1/model, ...), is pinned
// against LRU eviction, and cannot be deleted — only hot-swapped.
const DefaultModel = "default"

// registryDrainTimeout bounds how long a replaced or evicted instance's
// streaming adapter may spend folding its remaining queue before it is
// abandoned. Eviction must not hang the upload that triggered it, and a
// wedged fold must not hang shutdown: instance.close applies the bound
// whenever the caller's context carries no deadline of its own. A var (not
// a const) so drain-robustness tests can shrink the budget.
var registryDrainTimeout = 5 * time.Second

// modelName validates registry names: one leading alphanumeric, then up to
// 63 of [A-Za-z0-9._-], so names are safe in URLs, metric labels, and logs.
var modelName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// instance is one served bundle: its own encoder (bundles may differ in
// dimension and sensor count), ensemble, and streaming adaptation worker.
// Every read goes through the ensemble's lock-free snapshot; every change
// (adapt folds, stream folds, spawns, rollbacks, export's flush) serializes
// on the ensemble's own mutex, the one per-model lock.
type instance struct {
	name   string
	enc    *encode.Encoder
	encfg  encode.Config
	model  *model.Ensemble
	stream *stream.Adapter

	// rollbacks counts successful POST .../stream/rollback restores.
	rollbacks atomic.Int64

	// Durable-checkpoint bookkeeping: the snapshot version the newest
	// generation holds (the checkpointer saves the instance once its
	// snapshot version moves past it), the last persisted generation, and
	// cumulative save/failure counts for stats and metrics.
	ckptVersion  atomic.Uint64
	ckptGen      atomic.Int64
	ckptSaves    atomic.Int64
	ckptFailures atomic.Int64

	lastUsed int64 // registry LRU tick; guarded by the registry mutex
}

// encode returns the instance's canonical bundle bytes with the snapshot
// published for the state they hold.
func (inst *instance) encode() ([]byte, *model.Snapshot, error) {
	b := pipeline.Bundle{Encoder: inst.encfg, Model: inst.model}
	return b.Encode()
}

// recovered marks the instance's state as the one durable generation gen
// holds.
func (inst *instance) recovered(gen int64) {
	inst.ckptGen.Store(gen)
	inst.ckptVersion.Store(inst.model.Snapshot().Version())
}

// close drains the instance's streaming queue into its model and stops the
// worker. A caller context without a deadline is bounded at
// registryDrainTimeout, so a wedged or fault-stalled fold can never hang a
// Background-context shutdown; an explicit caller deadline (e.g. the
// -drain-timeout SIGTERM budget) is honored as-is. Past the budget the
// adapter abandons its remaining queue (counted as lost) rather than folding
// it forever.
func (inst *instance) close(ctx context.Context) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, registryDrainTimeout)
		defer cancel()
	}
	return inst.stream.Close(ctx)
}

// modelInfo is one registry entry's identity and state, for /v1/models and
// the labeled /metrics series.
type modelInfo struct {
	Name     string             `json:"name"`
	Adapted  bool               `json:"adapted"`
	Dim      int                `json:"dim"`
	Classes  int                `json:"classes"`
	Sensors  int                `json:"sensors"`
	Strategy string             `json:"strategy"`
	Targets  []model.TargetInfo `json:"targets,omitempty"`
	Rollback int64              `json:"rollbacks_total"`
	Stream   stream.Stats       `json:"stream"`

	// Breaker is the stream-fold circuit state (closed | open | half_open);
	// BreakerOpens counts how many times it tripped.
	Breaker      string `json:"breaker"`
	BreakerOpens int64  `json:"breaker_opens_total"`

	// Durable-checkpoint state: the last persisted generation (0 when the
	// instance has never been checkpointed) and cumulative save/failure
	// counts.
	CheckpointGen      int64 `json:"checkpoint_generation"`
	Checkpoints        int64 `json:"checkpoints_total"`
	CheckpointFailures int64 `json:"checkpoint_failures_total"`
}

// bundleErrCode picks the stable error code for a rejected bundle from the
// model package's typed errors — no string matching.
func bundleErrCode(err error) string {
	switch {
	case errors.Is(err, model.ErrInvalidConfig):
		return codeInvalidConfig
	case errors.Is(err, model.ErrUnknownStrategy):
		return codeUnknownStrategy
	}
	return codeInvalidBundle
}

// registry holds the named instances. All map and LRU-clock access is under
// mu; instance creation and adapter shutdown happen outside it so a slow
// drain never blocks lookups.
type registry struct {
	opt  Options
	met  *metrics
	logf func(format string, args ...any)

	// store is the durable checkpoint store; nil when Options.StateDir is
	// unset. The fold closures use it for the change-count trigger, and
	// remove() forgets a deleted model's state.
	store *stateStore

	// def always points at the instance currently registered under
	// DefaultModel; upsert repoints it on a default hot swap. The unnamed
	// routes resolve through this single atomic load instead of a map
	// lookup under mu, keeping the default predict path lock-free.
	def atomic.Pointer[instance]

	mu     sync.Mutex
	models map[string]*instance
	clock  int64
}

func newRegistry(opt Options, met *metrics, logf func(string, ...any)) *registry {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &registry{opt: opt, met: met, logf: logf, models: map[string]*instance{}}
}

// newInstance builds a served instance around a loaded bundle: the encoder
// is reconstructed deterministically from the bundle's encoder config, and
// the streaming adaptation worker is started.
func (g *registry) newInstance(name string, b *pipeline.Bundle) (*instance, error) {
	if b.Model == nil {
		return nil, fmt.Errorf("serve: bundle has no model")
	}
	if b.Model.Snapshot() == nil {
		return nil, fmt.Errorf("serve: bundle model is untrained")
	}
	enc, err := encode.New(b.Encoder)
	if err != nil {
		return nil, fmt.Errorf("serve: rebuilding encoder: %w", err)
	}
	inst := &instance{name: name, enc: enc, encfg: b.Encoder, model: b.Model}
	inst.stream = stream.New(
		stream.Config{
			QueueCap: g.opt.StreamQueue, MaxBatch: g.opt.StreamBatch,
			BreakerThreshold: g.opt.BreakerThreshold, BreakerCooldown: g.opt.BreakerCooldown,
			Policy: g.opt.DriftPolicy, MaxTargets: g.opt.MaxTargets,
			// The adapter calls SetStrategy, Sim, Spawn and the fold from its
			// worker goroutine with no adapter lock held; the model serializes
			// them on its own mutex.
			SetStrategy: inst.model.SetStrategy,
			Sim:         inst.model.BatchSimilarity,
			Spawn: func(maxTargets int, retire bool) (string, string, error) {
				spawned, retired, err := inst.model.SpawnTarget("", maxTargets, retire)
				if err == nil {
					g.logf("serve: model %q drift: spawned target %q (retired %q)", inst.name, spawned, retired)
				}
				return spawned, retired, err
			},
		},
		func(windows [][][]float64) ([]hdc.Vector, error) {
			defer g.met.stage("stream_encode")()
			if err := fault.Maybe("stream.encode.err"); err != nil {
				return nil, err
			}
			return inst.enc.EncodeBatch(windows, g.opt.Workers)
		},
		func(hvs []hdc.Vector) (model.AdaptStats, error) {
			defer g.met.stage("fold")()
			// Chaos hooks: a slow fold models a wedged worker (the drain
			// budget must still hold), a fold error feeds the adapter's
			// circuit. Both fire before the fold takes the model's lock, so
			// an injected stall never blocks export or adapt traffic.
			fault.Sleep("stream.fold.slow")
			if err := fault.Maybe("stream.fold.err"); err != nil {
				return model.AdaptStats{}, err
			}
			stats, err := inst.model.AdaptIncremental(hvs, g.opt.Workers)
			if err == nil && g.store != nil {
				g.store.afterFold(inst)
			}
			return stats, err
		},
	)
	inst.stream.Start()
	return inst, nil
}

// get returns the named instance, touching its LRU slot. A malformed name
// is a 400, an unknown one a 404.
func (g *registry) get(name string) (*instance, error) {
	if !modelName.MatchString(name) {
		return nil, &httpError{http.StatusBadRequest, codeInvalidModelName, fmt.Sprintf("invalid model name %q", name)}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	inst, ok := g.models[name]
	if !ok {
		return nil, &httpError{http.StatusNotFound, codeModelNotFound, fmt.Sprintf("model %q not found", name)}
	}
	g.clock++
	inst.lastUsed = g.clock
	return inst, nil
}

// upsert installs a bundle under name: an existing entry is hot-swapped
// atomically (in-flight requests finish against the old instance; new
// lookups see the new one), a new entry may first LRU-evict the
// least-recently-used non-default model to stay under MaxModels. The
// replaced or evicted instances' stream queues are drained in the
// background. Reports whether the name already existed and which model, if
// any, was evicted.
func (g *registry) upsert(name string, b *pipeline.Bundle) (swapped bool, evicted string, err error) {
	if !modelName.MatchString(name) {
		return false, "", &httpError{http.StatusBadRequest, codeInvalidModelName, fmt.Sprintf("invalid model name %q", name)}
	}
	inst, err := g.newInstance(name, b)
	if err != nil {
		return false, "", &httpError{http.StatusBadRequest, bundleErrCode(err), err.Error()}
	}
	var retired []*instance
	g.mu.Lock()
	old, swapped := g.models[name]
	if swapped {
		retired = append(retired, old)
	} else if len(g.models) >= g.opt.MaxModels {
		victim := g.lruVictimLocked()
		if victim == nil {
			g.mu.Unlock()
			// The new instance never entered the registry; stop its worker.
			go g.retire([]*instance{inst})
			return false, "", &httpError{http.StatusConflict, codeRegistryFull,
				fmt.Sprintf("registry full (%d models) and nothing evictable", g.opt.MaxModels)}
		}
		evicted = victim.name
		delete(g.models, victim.name)
		retired = append(retired, victim)
	}
	g.models[name] = inst
	if name == DefaultModel {
		// Repoint the unnamed routes before the swap is visible by name, so
		// no request can resolve the retired (soon-to-close) instance as the
		// default after the upload response returns.
		g.def.Store(inst)
	}
	g.clock++
	inst.lastUsed = g.clock
	g.mu.Unlock()
	if len(retired) > 0 {
		go g.retire(retired)
	}
	g.met.uploads.Add(1)
	switch {
	case swapped:
		g.met.swaps.Add(1)
		g.logf("serve: model %q hot-swapped (dim=%d classes=%d)", name, b.Encoder.Dim, b.Model.Config().Classes)
	case evicted != "":
		g.met.evictions.Add(1)
		g.logf("serve: model %q evicted (LRU) for %q", evicted, name)
		fallthrough
	default:
		g.logf("serve: model %q installed (dim=%d classes=%d)", name, b.Encoder.Dim, b.Model.Config().Classes)
	}
	return swapped, evicted, nil
}

// lruVictimLocked picks the least-recently-used evictable instance; the
// default model is pinned. Callers hold g.mu.
func (g *registry) lruVictimLocked() *instance {
	var victim *instance
	for name, inst := range g.models {
		if name == DefaultModel {
			continue
		}
		if victim == nil || inst.lastUsed < victim.lastUsed {
			victim = inst
		}
	}
	return victim
}

// remove deletes a named model. The default model is pinned (409); its
// stream queue is drained in the background like an eviction.
func (g *registry) remove(name string) error {
	if !modelName.MatchString(name) {
		return &httpError{http.StatusBadRequest, codeInvalidModelName, fmt.Sprintf("invalid model name %q", name)}
	}
	if name == DefaultModel {
		return &httpError{http.StatusConflict, codeDefaultPinned, "the default model cannot be deleted (upload to hot-swap it)"}
	}
	g.mu.Lock()
	inst, ok := g.models[name]
	if ok {
		delete(g.models, name)
	}
	g.mu.Unlock()
	if !ok {
		return &httpError{http.StatusNotFound, codeModelNotFound, fmt.Sprintf("model %q not found", name)}
	}
	go g.retire([]*instance{inst})
	if g.store != nil {
		// Forget the durable state too, or the deleted model would
		// resurrect at the next restart.
		g.store.forget(name)
	}
	g.met.deletes.Add(1)
	g.logf("serve: model %q deleted", name)
	return nil
}

// restore registers a model recovered from the state dir at startup. It
// respects MaxModels without evicting: the default model is already
// registered, and recovery order (most recent checkpoint first) decides who
// gets the remaining slots.
func (g *registry) restore(rec recoveredModel) error {
	inst, err := g.newInstance(rec.name, rec.bundle)
	if err != nil {
		return err
	}
	inst.recovered(rec.gen)
	g.mu.Lock()
	if _, exists := g.models[rec.name]; exists || len(g.models) >= g.opt.MaxModels {
		full := len(g.models)
		g.mu.Unlock()
		go g.retire([]*instance{inst})
		if full >= g.opt.MaxModels {
			return fmt.Errorf("registry full (%d models)", full)
		}
		return fmt.Errorf("model %q already registered", rec.name)
	}
	g.models[rec.name] = inst
	g.clock++
	inst.lastUsed = g.clock
	g.mu.Unlock()
	g.logf("serve: model %q recovered from state dir (generation %d)", rec.name, rec.gen)
	return nil
}

// retire drains and stops instances that just left the registry (replaced,
// evicted, or deleted). Callers run it on its own goroutine so the
// triggering request never waits on the drain, which instance.close bounds
// by registryDrainTimeout per instance so an abandoned stuffed queue cannot
// pin its model forever.
func (g *registry) retire(insts []*instance) {
	for _, inst := range insts {
		if err := inst.close(context.Background()); err != nil {
			g.logf("serve: draining retired model %q: %v", inst.name, err)
		}
	}
}

// size counts the registered models.
func (g *registry) size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.models)
}

// lookup returns the instance registered under name, or nil, without
// touching its LRU slot.
func (g *registry) lookup(name string) *instance {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.models[name]
}

// instances lists the registered instances.
func (g *registry) instances() []*instance {
	g.mu.Lock()
	defer g.mu.Unlock()
	insts := make([]*instance, 0, len(g.models))
	for _, inst := range g.models {
		insts = append(insts, inst)
	}
	return insts
}

// infos snapshots every entry's identity and stream counters, sorted by
// name for stable rendering. Each model's state comes from one snapshot, so
// a scrape never waits on a fold.
func (g *registry) infos() []modelInfo {
	insts := g.instances()
	out := make([]modelInfo, 0, len(insts))
	for _, inst := range insts {
		snap := inst.model.Snapshot()
		cfg := snap.Config()
		st := inst.stream.Stats()
		out = append(out, modelInfo{
			Name:               inst.name,
			Adapted:            snap.Adapted(),
			Dim:                cfg.Dim,
			Classes:            cfg.Classes,
			Sensors:            inst.encfg.Sensors,
			Strategy:           snap.Strategy().String(),
			Targets:            snap.Targets(),
			Rollback:           inst.rollbacks.Load(),
			Stream:             st,
			Breaker:            st.Circuit,
			BreakerOpens:       st.CircuitOpens,
			CheckpointGen:      inst.ckptGen.Load(),
			Checkpoints:        inst.ckptSaves.Load(),
			CheckpointFailures: inst.ckptFailures.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// closeAll shuts every instance's streaming worker down, draining queues
// into their models within ctx. Instances drain concurrently so one wedged
// fold cannot burn the whole budget and starve every other model's drain;
// the default model's error is reported first (the one the process exit code
// depends on).
func (g *registry) closeAll(ctx context.Context) error {
	g.mu.Lock()
	insts := make([]*instance, 0, len(g.models))
	if def, ok := g.models[DefaultModel]; ok {
		insts = append(insts, def)
	}
	for name, inst := range g.models {
		if name != DefaultModel {
			insts = append(insts, inst)
		}
	}
	g.mu.Unlock()
	errs := make([]error, len(insts))
	var wg sync.WaitGroup
	for i, inst := range insts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = inst.close(ctx)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
