// Package stream is the bounded ingestion queue and background
// micro-batching adapter behind the streaming adaptation path. Producers
// enqueue raw windows; a single worker goroutine coalesces them into batches
// of up to MaxBatch, encodes each batch on the shared worker pool *outside*
// any model lock, and folds the hypervectors into the model through a
// caller-supplied fold function (typically Ensemble.AdaptIncremental under
// the serving write lock). Prediction traffic therefore only ever contends
// with the short fold step, never with encoding.
//
// Enqueue is the one admission point. It is all-or-nothing and never
// blocks: a batch the fold circuit, the queue's size, shutdown or the
// queue's free space rejects changes nothing (ErrQueueFull is the serving
// layer's HTTP 429 backpressure). A batch may carry an adaptation strategy,
// which the worker installs when it reaches the batch. Batches fold
// strictly in enqueue order, and both encode and fold are deterministic, so
// a fixed arrival order always yields the same adapted model.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
)

// ErrQueueFull is returned by Enqueue when the queue cannot accept the whole
// batch; nothing is enqueued. Callers should retry later (backpressure).
var ErrQueueFull = errors.New("stream: queue full")

// ErrClosed is returned by Enqueue after Close has begun shutting the
// adapter down.
var ErrClosed = errors.New("stream: adapter closed")

// ErrTooLarge is returned by Enqueue for a batch of more windows than the
// queue can ever hold; nothing is enqueued, and a retry cannot succeed.
var ErrTooLarge = errors.New("stream: batch larger than the queue")

// ErrCircuitOpen is wrapped by the CircuitOpenError Enqueue returns while
// the fold circuit rejects batches.
var ErrCircuitOpen = errors.New("stream: circuit open")

// CircuitOpenError is Enqueue's rejection after repeated fold failures:
// the circuit is open, or its probe batch is outstanding.
type CircuitOpenError struct {
	RetryAfter time.Duration // how long until the circuit may admit a batch
}

func (e *CircuitOpenError) Error() string {
	return fmt.Sprintf("%v after repeated fold failures; retry in %v", ErrCircuitOpen, e.RetryAfter)
}

func (e *CircuitOpenError) Unwrap() error { return ErrCircuitOpen }

// EncodeFunc encodes raw windows into hypervectors. It runs on the worker
// goroutine with no lock held, so it may use the full worker pool.
type EncodeFunc func(windows [][][]float64) ([]hdc.Vector, error)

// FoldFunc folds one encoded batch into the model. It runs on the worker
// goroutine; the callee is responsible for whatever locking the model needs
// (the serving layer takes its write lock here).
type FoldFunc func(hvs []hdc.Vector) (model.AdaptStats, error)

// Config tunes an Adapter; the zero value picks sane defaults.
type Config struct {
	QueueCap int // maximum windows held in the queue; <= 0 means 4096
	MaxBatch int // maximum windows folded per AdaptIncremental call; <= 0 means 256

	// BreakerThreshold opens the fold circuit after that many consecutive
	// fold failures; <= 0 never opens it. BreakerCooldown is how long an
	// open circuit rejects before the next batch queued is its probe;
	// <= 0 means 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// SetStrategy installs the strategy a batch was queued with, on the
	// worker goroutine with no adapter lock held, before the batch is
	// encoded. Nil ignores queued strategies.
	SetStrategy func(model.Strategy)

	// Policy decides when the worker opens a fresh target domain (the zero
	// value never does). A spawning policy needs Sim to measure batches and
	// Spawn to open targets; with either missing the policy is inert.
	Policy DriftPolicy
	// MaxTargets bounds the live target set under a retiring policy;
	// <= 0 means DefaultMaxTargets.
	MaxTargets int
	// Sim measures a batch against the active target (nil disables drift
	// tracking entirely).
	Sim SimFunc
	// Spawn opens a fresh target domain on a drift decision.
	Spawn SpawnFunc
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 4096
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxTargets <= 0 {
		c.MaxTargets = DefaultMaxTargets
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// Stats is a consistent snapshot of the adapter's counters.
type Stats struct {
	QueueDepth int  `json:"queue_depth"` // windows waiting in the queue
	InFlight   int  `json:"in_flight"`   // windows taken by the worker, not yet folded
	Capacity   int  `json:"capacity"`    // configured queue capacity
	MaxBatch   int  `json:"max_batch"`   // configured fold batch cap
	Closed     bool `json:"closed"`      // Close has begun; Enqueue rejects

	Enqueued      int64 `json:"enqueued_total"`       // windows accepted by Enqueue
	Dropped       int64 `json:"dropped_total"`        // windows rejected with ErrQueueFull
	BatchesFolded int64 `json:"batches_folded_total"` // successful fold calls
	WindowsFolded int64 `json:"windows_folded_total"` // windows in successful folds
	EncodeErrors  int64 `json:"encode_errors_total"`  // batches dropped by a failed encode
	FoldErrors    int64 `json:"fold_errors_total"`    // batches dropped by a failed fold
	// WindowsLost counts accepted windows discarded by a failed encode or
	// fold, so the books always balance:
	// Enqueued == WindowsFolded + WindowsLost + QueueDepth + InFlight.
	WindowsLost int64 `json:"windows_lost_total"`

	// Adapt accumulates the AdaptStats of every successful fold.
	Adapt model.AdaptStats `json:"adapt_stats"`
	// LastError is the most recent encode/fold error, for /v1/stream/stats.
	LastError string `json:"last_error,omitempty"`

	// DriftPolicy is the configured policy's registered name.
	DriftPolicy string `json:"drift_policy"`
	// SimilarityEMA is the tracked batch-vs-active-target similarity
	// trajectory; valid only while SimilarityValid (it resets on every
	// spawn and rollback).
	SimilarityEMA   float64 `json:"similarity_ema"`
	SimilarityValid bool    `json:"similarity_ema_valid"`
	// FoldsOnTarget counts successful folds since the active target last
	// changed (spawn or rollback).
	FoldsOnTarget int64 `json:"folds_on_target"`
	// TargetsSpawned / TargetsRetired count drift-policy transitions.
	TargetsSpawned int64 `json:"targets_spawned_total"`
	TargetsRetired int64 `json:"targets_retired_total"`

	// Circuit is the fold circuit's state (closed | open | half_open) and
	// CircuitOpens how many times it opened. The serving layer reports them
	// as the model's breaker, outside the stream stats.
	Circuit      string `json:"-"`
	CircuitOpens int64  `json:"-"`
}

// Drained reports whether nothing is queued or being folded.
func (s Stats) Drained() bool { return s.QueueDepth == 0 && s.InFlight == 0 }

// Adapter is the bounded queue plus its background worker. Construct with
// New, then call Start to launch the worker (Start is separate so replay
// harnesses can enqueue a full stream first and get deterministic batch
// boundaries). All methods are safe for concurrent use.
type Adapter struct {
	cfg    Config
	encode EncodeFunc
	fold   FoldFunc

	mu       sync.Mutex
	wake     *sync.Cond // signaled when work arrives or shutdown begins
	queue    []entry
	inFlight int
	closed   bool
	started  bool
	stats    Stats
	drift    driftState
	circuit  circuit

	// batchBuf is the coalescing buffer the worker reuses across
	// micro-batches, so steady-state folding does not allocate a fresh
	// batch slice per AdaptIncremental call. Only the worker touches it.
	batchBuf [][][]float64

	done chan struct{} // closed when the worker exits
}

// entry is one queued window. strat, set on the first window of a batch
// that carries a strategy, is installed before that window is encoded.
type entry struct {
	window [][]float64
	strat  *model.Strategy
}

// New builds an adapter; the worker does not run until Start.
func New(cfg Config, encode EncodeFunc, fold FoldFunc) *Adapter {
	a := &Adapter{
		cfg:    cfg.withDefaults(),
		encode: encode,
		fold:   fold,
		done:   make(chan struct{}),
	}
	a.circuit = circuit{threshold: a.cfg.BreakerThreshold, cooldown: a.cfg.BreakerCooldown, state: circuitClosed}
	a.wake = sync.NewCond(&a.mu)
	return a
}

// Start launches the background worker. Calling Start more than once is a
// no-op.
func (a *Adapter) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.started {
		return
	}
	a.started = true
	go a.run()
}

// Enqueue queues windows with the strategy they fold under (nil keeps the
// installed one), or rejects them all, in this order: *CircuitOpenError
// while the fold circuit rejects, ErrTooLarge for more windows than the
// queue can ever hold, ErrClosed once Close has begun, ErrQueueFull (a
// counted drop) when they do not fit now. It never blocks. The returned
// depth is the queue depth immediately after the call.
func (a *Adapter) Enqueue(windows [][][]float64, strat *model.Strategy) (depth int, err error) {
	if len(windows) == 0 {
		return 0, fmt.Errorf("stream: empty batch")
	}
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if wait := a.circuit.wait(now); wait > 0 {
		return len(a.queue), &CircuitOpenError{RetryAfter: wait}
	}
	if len(windows) > a.cfg.QueueCap {
		return len(a.queue), ErrTooLarge
	}
	if a.closed {
		return len(a.queue), ErrClosed
	}
	if len(a.queue)+len(windows) > a.cfg.QueueCap {
		a.stats.Dropped += int64(len(windows))
		return len(a.queue), ErrQueueFull
	}
	a.circuit.queued()
	a.queue = append(a.queue, entry{window: windows[0], strat: strat})
	for _, w := range windows[1:] {
		a.queue = append(a.queue, entry{window: w})
	}
	a.stats.Enqueued += int64(len(windows))
	a.wake.Signal()
	return len(a.queue), nil
}

// Stats returns a consistent snapshot of the adapter's counters.
func (a *Adapter) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snapshotLocked()
}

func (a *Adapter) snapshotLocked() Stats {
	s := a.stats
	s.QueueDepth = len(a.queue)
	s.InFlight = a.inFlight
	s.Capacity = a.cfg.QueueCap
	s.MaxBatch = a.cfg.MaxBatch
	s.Closed = a.closed
	s.DriftPolicy = a.cfg.Policy.Name()
	s.SimilarityEMA = a.drift.ema
	s.SimilarityValid = a.drift.emaInit
	s.FoldsOnTarget = a.drift.folds
	s.Circuit = a.circuit.state
	s.CircuitOpens = a.circuit.opens
	return s
}

// Close stops accepting new windows, lets the worker drain everything
// already enqueued, and waits for it to exit (or ctx to expire). If Start
// was never called, Close runs the worker once inline so a pre-loaded queue
// still drains. Close is idempotent.
//
// When ctx expires before the drain finishes — typically a wedged or
// deliberately stalled fold — Close abandons the remaining queue: the
// dropped windows are accounted as WindowsLost (so the reconciliation
// invariant still balances) and the worker exits right after its in-flight
// batch instead of grinding through a stuffed queue long after shutdown gave
// up on it. A later Close observes the worker's actual exit.
func (a *Adapter) Close(ctx context.Context) error {
	a.mu.Lock()
	a.closed = true
	if !a.started {
		a.started = true
		go a.run()
	}
	a.wake.Signal()
	a.mu.Unlock()
	select {
	case <-a.done:
		return nil
	case <-ctx.Done():
	}
	a.mu.Lock()
	lost := len(a.queue)
	if lost > 0 {
		clear(a.queue)
		a.queue = a.queue[:0]
		a.stats.WindowsLost += int64(lost)
		a.stats.LastError = fmt.Sprintf("close abandoned %d queued windows: %v", lost, ctx.Err())
	}
	a.mu.Unlock()
	if lost > 0 {
		return fmt.Errorf("stream: close: %w (abandoned %d queued windows)", ctx.Err(), lost)
	}
	return fmt.Errorf("stream: close: %w", ctx.Err())
}

// maybeDrift measures the encoded batch against the active target domain
// and lets the drift policy redirect it into a freshly spawned target. It
// runs on the worker goroutine between encode and fold: the similarity is
// computed against the pre-fold state, so the drifted batch itself becomes
// the first fold — and the source-mixture initializer — of the new target,
// and the spawn's checkpoint is exactly the pre-drift state. Lock order:
// the Sim/Spawn callees take the model/instance lock; the adapter mutex is
// only held for the trajectory bookkeeping in between, never across either
// call.
func (a *Adapter) maybeDrift(hvs []hdc.Vector) {
	if a.cfg.Sim == nil {
		return
	}
	sim, ok, err := a.cfg.Sim(hvs)
	if err != nil || !ok {
		return
	}
	pol := a.cfg.Policy
	if a.cfg.Spawn == nil {
		pol = DriftPolicy{} // tracking-only: keep the EMA gauge, never spawn
	}
	a.mu.Lock()
	spawn := a.drift.observe(pol, sim)
	a.mu.Unlock()
	if !spawn {
		return
	}
	_, retired, spawnErr := a.cfg.Spawn(a.cfg.MaxTargets, pol.Retire)
	a.mu.Lock()
	if spawnErr != nil {
		a.stats.LastError = spawnErr.Error()
	} else {
		a.stats.TargetsSpawned++
		if retired != "" {
			a.stats.TargetsRetired++
		}
	}
	a.mu.Unlock()
}

// run is the worker loop: take up to MaxBatch windows, encode them with no
// lock held, fold them, repeat; exit once closed and empty.
func (a *Adapter) run() {
	defer close(a.done)
	for a.runOnce(true) {
	}
}

// runOnce processes one micro-batch: take up to MaxBatch windows off the
// queue (blocking for work or shutdown when wait is true), ending before the
// next window that carries a strategy, install the batch's strategy, encode
// the windows with no lock held, fold them, and account the outcome. It
// reports whether the worker should keep going — false means the queue is
// empty and, when waiting, that shutdown has begun.
func (a *Adapter) runOnce(wait bool) bool {
	a.mu.Lock()
	if wait {
		for len(a.queue) == 0 && !a.closed {
			a.wake.Wait()
		}
	}
	if len(a.queue) == 0 {
		a.mu.Unlock()
		return false // drained (and, when waiting, closed)
	}
	strat := a.queue[0].strat
	batch := append(a.batchBuf[:0], a.queue[0].window)
	for _, e := range a.queue[1:min(len(a.queue), a.cfg.MaxBatch)] {
		if e.strat != nil {
			break
		}
		batch = append(batch, e.window)
	}
	a.batchBuf = batch
	n := len(batch)
	// Shift rather than re-slice so the backing array's consumed prefix
	// does not pin window data for the queue's lifetime.
	rest := copy(a.queue, a.queue[n:])
	clear(a.queue[rest:])
	a.queue = a.queue[:rest]
	a.inFlight = n
	a.mu.Unlock()

	// Installing even when the encode or fold below fails publishes the
	// strategy the request selected, in queue order.
	if strat != nil && a.cfg.SetStrategy != nil {
		a.cfg.SetStrategy(*strat)
	}
	var stats model.AdaptStats
	hvs, encErr := a.encode(batch)
	var foldErr error
	if encErr == nil {
		a.maybeDrift(hvs)
		stats, foldErr = a.fold(hvs)
	}
	// Drop the window references so the reused buffer cannot pin client
	// data between micro-batches.
	clear(batch)

	now := time.Now()
	a.mu.Lock()
	switch {
	case encErr != nil:
		a.stats.EncodeErrors++
		a.stats.WindowsLost += int64(n)
		a.stats.LastError = encErr.Error()
		a.circuit.encodeFailed()
	case foldErr != nil:
		a.stats.FoldErrors++
		a.stats.WindowsLost += int64(n)
		a.stats.LastError = foldErr.Error()
		a.circuit.record(false, now)
	default:
		a.circuit.record(true, now)
		a.stats.BatchesFolded++
		a.stats.WindowsFolded += int64(n)
		a.stats.Adapt.Accumulate(stats)
		a.drift.folds++
		// A transient failure must not be reported forever: the sticky
		// last-error clears on the next clean fold (the cumulative error
		// counters keep the history).
		a.stats.LastError = ""
	}
	a.inFlight = 0
	a.mu.Unlock()
	return true
}
