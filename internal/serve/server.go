// Package serve is the long-running HTTP surface around trained SMORE
// bundles: batched encode→predict, incremental adaptation on submitted
// unlabeled batches, a streaming adaptation queue, model export, a named
// multi-model registry with LRU eviction, and health/metrics endpoints.
//
// Every read is lock-free: each ensemble publishes an immutable snapshot
// after every change — carrying its prototypes, target list, rollback
// checkpoint and version — and a predict request scores its whole batch
// against one atomically-loaded snapshot, as stats, listings and metrics
// read theirs, so no read ever stalls behind adaptation or export. Every
// change to a model (adaptation folds, spawns, rollbacks, and model export,
// which flushes accumulator staging state) serializes on the ensemble's own
// mutex, the one per-model lock. The streaming path encodes on the worker
// pool with no lock held and only takes that lock for the fold step.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
	"go-arxiv/smore/internal/stream"
)

// Options tunes the server; the zero value picks sane defaults.
type Options struct {
	Workers  int   // worker-pool size for encode/predict batches; <= 0 means GOMAXPROCS
	MaxBatch int   // maximum windows per request; <= 0 means 1024
	MaxBody  int64 // request body cap in bytes; <= 0 means 32 MiB

	// StreamQueue caps how many windows a model's streaming adaptation queue
	// may hold before POST .../stream/adapt returns 429; <= 0 means 4096.
	StreamQueue int
	// StreamBatch caps how many queued windows a background adapter folds
	// per AdaptIncremental call; <= 0 means 256.
	StreamBatch int

	// DriftPolicy decides when a model's streaming adapter spawns a fresh
	// target domain on a similarity cliff (see stream.ParseDriftPolicy for
	// the spec grammar). The zero value is "none": the similarity EMA is
	// still tracked for observability, but no targets are ever spawned.
	DriftPolicy stream.DriftPolicy
	// MaxTargets bounds the live target set under a retiring drift policy;
	// <= 0 means stream.DefaultMaxTargets.
	MaxTargets int

	// MaxModels caps how many named bundles the registry holds at once;
	// uploading past the cap LRU-evicts the least-recently-used non-default
	// model. <= 0 means 8. The default model is pinned and does not count
	// toward evictability (a cap of 1 leaves room for nothing else).
	MaxModels int

	// StateDir, when set, enables durable checkpointing: every instance's
	// bundle (and its drift-rollback checkpoint) is persisted under
	// StateDir/<model>/ via temp-file + fsync + atomic rename, and New
	// recovers the last good generation of every model found there.
	StateDir string
	// CheckpointInterval is the periodic checkpoint cadence for instances
	// whose model changed (any fold, strategy change, spawn, rollback,
	// upload or swap) since their newest generation; <= 0 disables the
	// ticker (checkpoints still happen on the change-count trigger, the
	// checkpoint routes, and shutdown).
	CheckpointInterval time.Duration
	// CheckpointFolds checkpoints an instance once that many model changes
	// (each stream fold is one, a drift spawn or strategy change one more)
	// have accumulated since its newest generation, checked after each
	// stream fold; <= 0 disables the trigger.
	CheckpointFolds int

	// RequestTimeout bounds each model-route request's handler work; past
	// the deadline the request fails 503 deadline_exceeded instead of
	// holding a worker-pool slot. The deadline propagates into batch
	// encoding, which runs in bounded chunks so an oversized batch cannot
	// overshoot it by more than one chunk. <= 0 disables.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently admitted requests across the model
	// routes (predict/adapt/stream-adapt/export/rollback/checkpoint); the
	// request past the cap is rejected 429 overloaded with a Retry-After
	// hint instead of queueing unboundedly. Health, metrics, stats, and
	// registry administration are exempt. <= 0 disables.
	MaxInFlight int

	// BreakerThreshold opens a model's stream-fold circuit after that many
	// consecutive fold failures: stream/adapt answers 503 adapter_open until
	// BreakerCooldown has passed, and the first batch queued after it is the
	// probe whose fold closes or reopens the circuit. <= 0 disables.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects before it admits
	// the probe; <= 0 means 5s.
	BreakerCooldown time.Duration

	// Logf, when set, receives registry lifecycle events (uploads, swaps,
	// evictions, deletions). Nil means silent.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 32 << 20
	}
	if o.StreamQueue <= 0 {
		o.StreamQueue = 4096
	}
	if o.MaxModels <= 0 {
		o.MaxModels = 8
	}
	return o
}

// Server serves a registry of named bundles. The bundle it booted with is
// registered as DefaultModel and backs the unnamed routes; uploading to
// "default" hot-swaps what those routes serve.
type Server struct {
	opt   Options
	met   *metrics
	reg   *registry
	store *stateStore // durable checkpoint store; nil without StateDir

	// inFlight counts requests currently admitted on the gated model
	// routes, against Options.MaxInFlight.
	inFlight atomic.Int64
}

// New builds a server around a loaded bundle, registering it as the default
// model, and starts its streaming adaptation worker. With Options.StateDir
// set, New first recovers the last good checkpoint generation of every model
// persisted there — a recovered default takes precedence over b — and starts
// the background checkpointer. Call Close to drain and stop every registered
// model.
func New(b *pipeline.Bundle, opt Options) (*Server, error) {
	s := &Server{opt: opt.withDefaults(), met: newMetrics()}
	s.reg = newRegistry(s.opt, s.met, s.opt.Logf)
	var recovered []recoveredModel
	if s.opt.StateDir != "" {
		store, err := newStateStore(s.opt, s.reg.logf)
		if err != nil {
			return nil, err
		}
		s.store = store
		s.reg.store = store
		recovered = store.recoverAll()
	}
	from := "the boot bundle"
	for _, rec := range recovered {
		if rec.name == DefaultModel {
			from = fmt.Sprintf("state dir generation %d", rec.gen)
			b = rec.bundle
		}
	}
	def, err := s.reg.newInstance(DefaultModel, b)
	if err != nil {
		return nil, err
	}
	s.reg.logf("serve: model %q from %s (dim=%d classes=%d sensors=%d)",
		DefaultModel, from, b.Encoder.Dim, b.Model.Config().Classes, b.Encoder.Sensors)
	s.reg.mu.Lock()
	s.reg.models[DefaultModel] = def
	s.reg.def.Store(def)
	s.reg.mu.Unlock()
	for _, rec := range recovered {
		if rec.name == DefaultModel {
			def.recovered(rec.gen)
			continue
		}
		if err := s.reg.restore(rec); err != nil {
			s.reg.logf("serve: not restoring recovered model %q: %v", rec.name, err)
		}
	}
	if s.store != nil {
		s.store.wg.Add(1)
		go s.runCheckpointer()
	}
	return s, nil
}

// Close stops accepting streamed windows on every registered model, drains
// everything already queued into the models, and stops the background
// adapters. With a state dir it then takes a final checkpoint of every
// instance so the drained folds are durable before the process exits. It is
// the graceful-shutdown half of New; ctx bounds the drain.
func (s *Server) Close(ctx context.Context) error {
	err := s.reg.closeAll(ctx)
	if s.store != nil {
		s.store.stopOnce.Do(func() { close(s.store.stop) })
		s.store.wg.Wait()
		if cerr := s.checkpointAll(true); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// StreamStats snapshots the current default model's streaming queue
// counters (the hot-swapped-in instance after an upload to "default").
func (s *Server) StreamStats() stream.Stats { return s.reg.def.Load().stream.Stats() }

// Handler returns the HTTP routes:
//
//	POST   /v1/predict                    {"windows": [[[...]]]} → {"predictions": [...]}
//	POST   /v1/adapt                      {"windows": [[[...]]]} → {"stats": {...}}
//	POST   /v1/stream/adapt               enqueue windows for background adaptation → 202 (429 when full)
//	GET    /v1/stream/stats               streaming queue depth, folds, drift trajectory, target set
//	POST   /v1/stream/rollback            restore the pre-drift checkpoint (409 no_checkpoint without one)
//	POST   /v1/checkpoint                 persist the default model to the state dir (409 no_state_dir without one)
//	GET    /v1/model                      canonical default bundle bytes (save/export)
//	GET    /v1/models                     registry listing
//	POST   /v1/models/{name}              upload a bundle (create or atomic hot swap)
//	GET    /v1/models/{name}              canonical named bundle bytes
//	DELETE /v1/models/{name}              remove a named model (default is pinned)
//	POST   /v1/models/{name}/predict      per-model predict
//	POST   /v1/models/{name}/adapt        per-model incremental adaptation
//	POST   /v1/models/{name}/stream/adapt per-model streaming enqueue
//	GET    /v1/models/{name}/stream/stats per-model streaming counters
//	POST   /v1/models/{name}/stream/rollback per-model checkpoint restore
//	POST   /v1/models/{name}/checkpoint   per-model durable checkpoint
//	GET    /healthz                       liveness + default model summary
//	GET    /metrics                       Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	def, named := s.defaultInstance, s.namedInstance
	mux.HandleFunc("POST /v1/predict", s.onModel("predict", def, s.predict))
	mux.HandleFunc("POST /v1/adapt", s.onModel("adapt", def, s.adapt))
	mux.HandleFunc("POST /v1/stream/adapt", s.onModel("stream_adapt", def, s.streamAdapt))
	mux.HandleFunc("GET /v1/stream/stats", s.onModel("stream_stats", def, s.streamStats))
	mux.HandleFunc("POST /v1/stream/rollback", s.onModel("stream_rollback", def, s.streamRollback))
	mux.HandleFunc("POST /v1/checkpoint", s.onModel("checkpoint", def, s.checkpoint))
	mux.HandleFunc("GET /v1/model", s.onModel("model", def, s.export))
	mux.HandleFunc("GET /v1/models", s.plain("models", s.listModels))
	mux.HandleFunc("POST /v1/models/{name}", s.plain("model_upload", s.uploadModel))
	mux.HandleFunc("GET /v1/models/{name}", s.onModel("model", named, s.export))
	mux.HandleFunc("DELETE /v1/models/{name}", s.plain("model_delete", s.deleteModel))
	mux.HandleFunc("POST /v1/models/{name}/predict", s.onModel("predict", named, s.predict))
	mux.HandleFunc("POST /v1/models/{name}/adapt", s.onModel("adapt", named, s.adapt))
	mux.HandleFunc("POST /v1/models/{name}/stream/adapt", s.onModel("stream_adapt", named, s.streamAdapt))
	mux.HandleFunc("GET /v1/models/{name}/stream/stats", s.onModel("stream_stats", named, s.streamStats))
	mux.HandleFunc("POST /v1/models/{name}/stream/rollback", s.onModel("stream_rollback", named, s.streamRollback))
	mux.HandleFunc("POST /v1/models/{name}/checkpoint", s.onModel("checkpoint", named, s.checkpoint))
	mux.HandleFunc("GET /healthz", s.plain("healthz", s.healthz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// instanceHandler is one route's logic against a resolved model instance.
type instanceHandler func(inst *instance, w *responseRecorder, r *http.Request) error

// admit reserves an in-flight admission slot for a gated model route,
// returning the release func, or an overload rejection once MaxInFlight
// slots are taken. Stats stay exempt so overloaded servers remain
// observable (loadgen reconciles queue counters through them mid-storm).
func (s *Server) admit(endpoint string) (release func(), err error) {
	if s.opt.MaxInFlight <= 0 || endpoint == "stream_stats" {
		return func() {}, nil
	}
	if n := s.inFlight.Add(1); n > int64(s.opt.MaxInFlight) {
		s.inFlight.Add(-1)
		s.met.overloadRejects.Add(1)
		return nil, withRetryAfter(&httpError{http.StatusTooManyRequests, codeOverloaded,
			fmt.Sprintf("server at its in-flight request cap (%d); retry later", s.opt.MaxInFlight)}, time.Second)
	}
	return func() { s.inFlight.Add(-1) }, nil
}

// withDeadline applies the per-request deadline to the request context.
func (s *Server) withDeadline(r *http.Request) (*http.Request, context.CancelFunc) {
	if s.opt.RequestTimeout <= 0 {
		return r, func() {}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
	return r.WithContext(ctx), cancel
}

// defaultInstance resolves the unnamed routes to whatever instance is
// currently registered as the default — one atomic load, no registry lock,
// and always the live instance even after a hot swap of "default" (a cached
// pointer would keep serving, and stream-enqueueing into, the retired
// model).
func (s *Server) defaultInstance(*http.Request) (*instance, error) { return s.reg.def.Load(), nil }

// namedInstance resolves {name} through the registry, touching its LRU slot.
func (s *Server) namedInstance(r *http.Request) (*instance, error) {
	return s.reg.get(r.PathValue("name"))
}

// onModel wires an instance handler to the instance resolve picks, behind
// the overload-protection envelope: the in-flight admission cap and the
// per-request deadline. A named route shares the endpoint counters of its
// default-route twin.
func (s *Server) onModel(endpoint string, resolve func(*http.Request) (*instance, error), h instanceHandler) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		w := &responseRecorder{ResponseWriter: rw}
		release, err := s.admit(endpoint)
		if err != nil {
			s.finish(w, endpoint, start, err)
			return
		}
		defer release()
		r, cancel := s.withDeadline(r)
		defer cancel()
		inst, err := resolve(r)
		if err == nil {
			err = h(inst, w, r)
		}
		s.finish(w, endpoint, start, err)
	}
}

// plain wires a handler that needs no instance resolution.
func (s *Server) plain(endpoint string, h func(w *responseRecorder, r *http.Request) error) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		w := &responseRecorder{ResponseWriter: rw}
		s.finish(w, endpoint, start, h(w, r))
	}
}

type predictRequest struct {
	// Windows[i][t][s] is sensor s at timestep t of window i.
	Windows [][][]float64 `json:"windows"`
	// SourceOnly predicts with the source ensemble even when an adapted
	// target model exists (the no-adapt baseline).
	SourceOnly bool `json:"source_only,omitempty"`
	// Strategy selects the adaptation recipe for this request as a
	// "confidence+constant+update" spec (adapt and stream/adapt routes
	// only; prediction doesn't adapt, so predict rejects it). Empty keeps
	// the model's current strategy.
	Strategy string `json:"strategy,omitempty"`
}

type predictResponse struct {
	Predictions []int `json:"predictions"`
	Adapted     bool  `json:"adapted"`
}

type adaptResponse struct {
	Stats    model.AdaptStats `json:"stats"`
	Adapted  bool             `json:"adapted"`
	Strategy string           `json:"strategy"`
}

// httpError carries a status code and a stable machine-readable error code
// out of a handler stage.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// retryAfterError decorates an httpError with a Retry-After hint for
// backpressure responses. It wraps rather than extends httpError so the
// dozens of positional httpError literals (and the errenvelope analyzer's
// view of them) stay three fields.
type retryAfterError struct {
	*httpError
	after time.Duration
}

func (e *retryAfterError) Unwrap() error { return e.httpError }

// withRetryAfter attaches a retry hint to a backpressure error; finish
// renders it as a Retry-After header (all 429/503 responses carry one — a
// wrapped hint overrides the 1s default).
func withRetryAfter(he *httpError, after time.Duration) error {
	return &retryAfterError{httpError: he, after: after}
}

// errorEnvelope is the uniform error body every route renders:
// {"error":{"code":"...","message":"..."}}.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func errStatus(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	return http.StatusInternalServerError
}

func errCode(err error) string {
	var he *httpError
	if errors.As(err, &he) && he.code != "" {
		return he.code
	}
	return codeInternal
}

// bodyError maps a failed request-body read to the client's error: 413 when
// the body overran MaxBody, otherwise the given error.
func (s *Server) bodyError(err error, otherwise *httpError) *httpError {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &httpError{http.StatusRequestEntityTooLarge, codeBodyTooLarge, fmt.Sprintf("body exceeds %d bytes", s.opt.MaxBody)}
	}
	return otherwise
}

// responseRecorder tracks whether a handler has committed a response, so an
// error surfaced after the 200 header went out (e.g. the client hung up
// mid-body) is only counted, never rendered on top of the partial response.
type responseRecorder struct {
	http.ResponseWriter
	wrote bool
}

func (r *responseRecorder) WriteHeader(code int) {
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *responseRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// deadlineError maps an expired request context to the 503 the client sees.
// A cancelled context (client hung up) takes the same shape; the envelope
// write will fail and be counted rather than rendered.
func deadlineError(err error) error {
	return withRetryAfter(&httpError{http.StatusServiceUnavailable, codeDeadlineExceeded,
		"request deadline exceeded: " + err.Error()}, time.Second)
}

// encodeChunk is the batch-encode granularity at which the request context
// is re-checked, bounding how far one oversized batch can overshoot its
// deadline, or outlive its client, inside the worker pool.
const encodeChunk = 64

// encodeWindows encodes the batch in chunks of encodeChunk windows. Window
// encodings are independent and deterministic, so the result is
// byte-identical to one EncodeBatch over the whole batch.
func (s *Server) encodeWindows(ctx context.Context, inst *instance, ws [][][]float64) ([]hdc.Vector, error) {
	defer s.met.stage("encode")()
	// EncodeBatch numbers a bad window within its chunk, not the request.
	if err := inst.validateWindows(ws); err != nil {
		return nil, err
	}
	out := make([]hdc.Vector, 0, len(ws))
	for start := 0; start < len(ws); start += encodeChunk {
		if err := ctx.Err(); err != nil {
			return nil, deadlineError(err)
		}
		hvs, err := inst.enc.EncodeBatch(ws[start:min(start+encodeChunk, len(ws))], s.opt.Workers)
		if err != nil {
			return nil, &httpError{http.StatusBadRequest, codeBadWindow, err.Error()}
		}
		out = append(out, hvs...)
	}
	if err := ctx.Err(); err != nil {
		return nil, deadlineError(err)
	}
	return out, nil
}

// predict scores the request's windows against one atomically-loaded model
// snapshot — no lock is acquired anywhere on this path, and the whole batch
// sees one consistent model state even while folds land concurrently.
func (s *Server) predict(inst *instance, w *responseRecorder, r *http.Request) error {
	sc := getScratch()
	defer putScratch(sc)
	var req predictRequest
	if err := s.decodeWindows(w, r, sc, &req); err != nil {
		return err
	}
	if req.Strategy != "" {
		return &httpError{http.StatusBadRequest, codeUnknownStrategy,
			"prediction does not adapt; \"strategy\" is only accepted on the adapt and stream/adapt routes"}
	}
	hvs, err := s.encodeWindows(r.Context(), inst, req.Windows)
	if err != nil {
		return err
	}
	done := s.met.stage("infer")
	snap := inst.model.Snapshot()
	var preds []int
	if req.SourceOnly {
		preds = snap.PredictSourceBatch(hvs, s.opt.Workers)
	} else {
		preds = snap.PredictBatch(hvs, s.opt.Workers)
	}
	adapted := snap.Adapted()
	done()
	return writeJSON(w, http.StatusOK, predictResponse{Predictions: preds, Adapted: adapted})
}

// parseStrategy resolves a request's optional strategy spec, mapping an
// unregistered name to a 400. It returns nil when the request selected none.
func parseStrategy(spec string) (*model.Strategy, error) {
	if spec == "" {
		return nil, nil
	}
	strat, err := model.ParseStrategySpec(spec)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, codeUnknownStrategy, err.Error()}
	}
	return &strat, nil
}

func (s *Server) adapt(inst *instance, w *responseRecorder, r *http.Request) error {
	sc := getScratch()
	defer putScratch(sc)
	var req predictRequest
	if err := s.decodeWindows(w, r, sc, &req); err != nil {
		return err
	}
	strat, err := parseStrategy(req.Strategy)
	if err != nil {
		return err
	}
	hvs, err := s.encodeWindows(r.Context(), inst, req.Windows)
	if err != nil {
		return err
	}
	// A synchronous fold reports its own failure in the response, so it
	// feeds neither the stream breaker nor the drift trajectory. Like every
	// change it publishes, which makes it durable on the next checkpoint.
	done := s.met.stage("adapt")
	stats, snap, aerr := inst.model.AdaptIncrementalWith(strat, hvs, s.opt.Workers)
	done()
	if aerr != nil {
		return adaptError(aerr)
	}
	adapted, used := snap.Adapted(), snap.Strategy().String()
	return writeJSON(w, http.StatusOK, adaptResponse{Stats: stats, Adapted: adapted, Strategy: used})
}

// adaptError maps an adaptation failure to the right HTTP status: inputs
// that can never succeed (dimension mismatch, empty batch) are the caller's
// fault (400), an untrained model is a state conflict (409), anything else
// is a server fault (500).
func adaptError(err error) *httpError {
	switch {
	case errors.Is(err, model.ErrInvalidTargets):
		return &httpError{http.StatusBadRequest, codeInvalidTargets, err.Error()}
	case errors.Is(err, model.ErrNotTrained):
		return &httpError{http.StatusConflict, codeNotTrained, err.Error()}
	default:
		return &httpError{http.StatusInternalServerError, codeInternal, err.Error()}
	}
}

// streamAdaptResponse acknowledges an accepted streaming batch.
type streamAdaptResponse struct {
	Accepted   int `json:"accepted"`
	QueueDepth int `json:"queue_depth"`
}

// validateWindows rejects windows the instance's encoder would fail on —
// fewer timesteps than the n-gram length, rows with the wrong sensor count
// — numbering them within the request. encodeWindows runs it before its
// chunked encode, and stream/adapt before the streaming queue: the
// background worker coalesces windows from many requests into one encode
// batch, and EncodeBatch fails wholesale, so an unvalidated bad window
// would silently destroy other clients' already-accepted data.
func (inst *instance) validateWindows(ws [][][]float64) error {
	for i, win := range ws {
		if len(win) < inst.encfg.NGram {
			return &httpError{http.StatusBadRequest, codeBadWindow,
				fmt.Sprintf("window %d has %d timesteps, need at least %d (the n-gram length)", i, len(win), inst.encfg.NGram)}
		}
		for t, row := range win {
			if len(row) != inst.encfg.Sensors {
				return &httpError{http.StatusBadRequest, codeBadWindow,
					fmt.Sprintf("window %d timestep %d has %d sensors, want %d", i, t, len(row), inst.encfg.Sensors)}
			}
		}
	}
	return nil
}

// streamAdapt hands the request's windows, with the strategy they fold
// under, to the instance's streaming adapter and returns immediately: 202
// with the queue depth on success. The adapter admits or rejects the whole
// batch, and a rejected request changes nothing: 503 adapter_open while the
// fold circuit is open, 413 for a batch the queue could never hold, 503
// once shutdown has begun, 429 when the queue is currently too full
// (backpressure — nothing is partially enqueued).
func (s *Server) streamAdapt(inst *instance, w *responseRecorder, r *http.Request) error {
	// The queue keeps the decoded windows until the worker encodes them, so
	// they live in a scratch of their own that never goes back to the pool
	// (a pooled one could also pin a larger earlier request's buffers).
	var req predictRequest
	if err := s.decodeWindows(w, r, new(windowScratch), &req); err != nil {
		return err
	}
	strat, err := parseStrategy(req.Strategy)
	if err != nil {
		return err
	}
	if err := inst.validateWindows(req.Windows); err != nil {
		return err
	}
	depth, err := inst.stream.Enqueue(req.Windows, strat)
	var open *stream.CircuitOpenError
	switch {
	case errors.As(err, &open):
		return withRetryAfter(&httpError{http.StatusServiceUnavailable, codeAdapterOpen,
			"stream adapter circuit open after repeated fold failures; retry later"}, open.RetryAfter)
	case errors.Is(err, stream.ErrTooLarge):
		// Terminal, not 429: a retry-later would send a well-behaved client
		// into an endless loop.
		return &httpError{http.StatusRequestEntityTooLarge, codeBatchTooLarge,
			fmt.Sprintf("batch of %d windows exceeds stream queue capacity %d", len(req.Windows), s.opt.StreamQueue)}
	case errors.Is(err, stream.ErrQueueFull):
		return &httpError{http.StatusTooManyRequests, codeQueueFull,
			fmt.Sprintf("stream queue full (%d of %d windows queued); retry later", depth, s.opt.StreamQueue)}
	case errors.Is(err, stream.ErrClosed):
		return &httpError{http.StatusServiceUnavailable, codeDraining, "server is draining; stream ingest closed"}
	case err != nil:
		return &httpError{http.StatusBadRequest, codeBadWindow, err.Error()}
	}
	return writeJSON(w, http.StatusAccepted, streamAdaptResponse{Accepted: len(req.Windows), QueueDepth: depth})
}

// streamStatsResponse is the /v1/stream/stats body: the adapter's queue and
// drift-trajectory counters plus the model's current target set and rollback
// availability.
type streamStatsResponse struct {
	stream.Stats
	Targets       []model.TargetInfo `json:"targets"`
	TargetsLive   int                `json:"targets_live"`
	Rollbacks     int64              `json:"rollbacks_total"`
	HasCheckpoint bool               `json:"has_checkpoint"`
}

// streamStats reports the instance's streaming queue counters and, from one
// snapshot, the target set the drift policy has grown on its model.
func (s *Server) streamStats(inst *instance, w *responseRecorder, r *http.Request) error {
	snap := inst.model.Snapshot()
	infos := snap.Targets()
	return writeJSON(w, http.StatusOK, streamStatsResponse{
		Stats:         inst.stream.Stats(),
		Targets:       infos,
		TargetsLive:   len(infos),
		Rollbacks:     inst.rollbacks.Load(),
		HasCheckpoint: snap.HasCheckpoint(),
	})
}

// streamRollback restores the model's pre-drift checkpoint — the exact state
// captured by the last spawn or retire — and resets the adapter's similarity
// trajectory so the drift detector starts measuring the restored target
// fresh. Without a checkpoint (no spawn happened, or adaptation was reset)
// it answers 409 no_checkpoint.
func (s *Server) streamRollback(inst *instance, w *responseRecorder, r *http.Request) error {
	done := s.met.stage("rollback")
	err := inst.model.Rollback()
	done()
	if err != nil {
		if errors.Is(err, model.ErrNoCheckpoint) {
			return &httpError{http.StatusConflict, codeNoCheckpoint, err.Error()}
		}
		return err
	}
	inst.stream.ResetDrift()
	inst.rollbacks.Add(1)
	infos := inst.model.Snapshot().Targets()
	return writeJSON(w, http.StatusOK, map[string]any{
		"rolled_back":  true,
		"targets":      infos,
		"targets_live": len(infos),
	})
}

// export writes the instance's canonical bundle bytes. Serialization
// flushes accumulator staging state, so it takes the model's mutex;
// predictions keep flowing off the published snapshot meanwhile.
func (s *Server) export(inst *instance, w *responseRecorder, r *http.Request) error {
	done := s.met.stage("export")
	raw, _, err := inst.encode()
	done()
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(raw)))
	_, err = w.Write(raw)
	return err
}

// listModels reports every registry entry's identity, state, and streaming
// counters.
func (s *Server) listModels(w *responseRecorder, r *http.Request) error {
	return writeJSON(w, http.StatusOK, map[string]any{"models": s.reg.infos()})
}

// uploadModelResponse acknowledges an installed bundle.
type uploadModelResponse struct {
	Name    string `json:"name"`
	Swapped bool   `json:"swapped"`           // an existing entry was hot-swapped
	Evicted string `json:"evicted,omitempty"` // LRU victim displaced by this upload
}

// uploadModel installs the request body (canonical bundle bytes, as written
// by /v1/model or smore train -save) under {name}: 201 for a new entry, 200 for
// an atomic hot swap of an existing one. In-flight requests against a
// swapped model finish against the old instance; its stream queue is
// drained into the discarded model in the background.
func (s *Server) uploadModel(w *responseRecorder, r *http.Request) error {
	name := r.PathValue("name")
	b, err := func() (*pipeline.Bundle, error) {
		defer s.met.stage("decode")()
		body := http.MaxBytesReader(w.ResponseWriter, r.Body, s.opt.MaxBody)
		b, err := pipeline.ReadBundle(body)
		if err != nil {
			return nil, s.bodyError(err, &httpError{http.StatusBadRequest, bundleErrCode(err), err.Error()})
		}
		if n, _ := io.Copy(io.Discard, body); n != 0 {
			return nil, &httpError{http.StatusBadRequest, codeTrailingData, "trailing bytes after bundle payload"}
		}
		return b, nil
	}()
	if err != nil {
		return err
	}
	swapped, evicted, err := s.reg.upsert(name, b)
	if err != nil {
		return err
	}
	status := http.StatusCreated
	if swapped {
		status = http.StatusOK
	}
	return writeJSON(w, status, uploadModelResponse{Name: name, Swapped: swapped, Evicted: evicted})
}

// deleteModel removes a named model from the registry; the default model is
// pinned and answers 409.
func (s *Server) deleteModel(w *responseRecorder, r *http.Request) error {
	if err := s.reg.remove(r.PathValue("name")); err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("name")})
}

func (s *Server) healthz(w *responseRecorder, r *http.Request) error {
	def := s.reg.def.Load()
	snap := def.model.Snapshot()
	cfg := snap.Config()
	return writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"adapted":  snap.Adapted(),
		"dim":      cfg.Dim,
		"classes":  cfg.Classes,
		"strategy": snap.Strategy().String(),
		"models":   s.reg.size(),
	})
}

// errWriter forwards writes and remembers the first failure, so a scrape
// whose response write fails is counted as an error by finish.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	n, err := ew.w.Write(p)
	if err != nil && ew.err == nil {
		ew.err = err
	}
	return n, err
}

// handleMetrics renders the Prometheus exposition. It goes through the same
// responseRecorder/finish accounting as every other endpoint — including
// write failures, which finish counts as errors — so scrapes show up in the
// per-endpoint request counters (the scrape in progress is counted by the
// *next* one: finish runs after render).
func (s *Server) handleMetrics(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w := &responseRecorder{ResponseWriter: rw}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	ew := &errWriter{w: w}
	s.met.render(ew, s.reg.infos())
	s.finish(w, "metrics", start, ew.err)
}

// finish records metrics for a request and renders the error in the
// uniform envelope — unless a response was already committed (then the
// error, typically a failed body write to a gone client, is only counted).
//
// The errenvelope analyzer (internal/lint/errenvelope) flags envelope
// literals and bare error statuses everywhere else.
//
//smore:envelope-helper — the single function that renders error bodies; the
func (s *Server) finish(w *responseRecorder, endpoint string, start time.Time, err error) {
	s.met.observeRequest(endpoint, start, err != nil)
	if err == nil {
		return
	}
	if w.wrote {
		// A handler only surfaces an error after committing a status when the
		// body write itself failed; nothing can be rendered on top of the
		// partial response, so the failure is counted instead.
		s.met.observeWriteError(endpoint)
		return
	}
	status := errStatus(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// Every backpressure response tells the client when to come back:
		// a wrapped retryAfterError carries the precise hint (e.g. the
		// breaker's remaining cooldown); everything else gets 1 second.
		secs := 1
		var ra *retryAfterError
		if errors.As(err, &ra) && ra.after > 0 {
			secs = max(1, int(math.Ceil(ra.after.Seconds())))
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	ew := &errWriter{w: w}
	// Best-effort by design: the error status line is already committed, so
	// if the envelope body fails to reach the client there is nothing left
	// to answer with — the failure lands in writeErrors below.
	//smorevet:allow errenvelope -- the sanctioned raw envelope write; failures counted via observeWriteError
	_ = json.NewEncoder(ew).Encode(errorEnvelope{Error: errorBody{Code: errCode(err), Message: err.Error()}})
	if ew.err != nil {
		s.met.observeWriteError(endpoint)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}
