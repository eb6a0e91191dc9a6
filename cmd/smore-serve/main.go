// Command smore-serve is the long-running HTTP serving surface around a
// trained SMORE model bundle (written by `smore train -save`): batched
// encode→predict, incremental adaptation on unlabeled batches, a streaming
// adaptation queue, model export, and health/metrics endpoints.
//
//	smore-serve -load model.smore -addr :8080
//
//	POST   /v1/predict                    {"windows": [[[...]]]} → {"predictions": [...]}
//	POST   /v1/adapt                      {"windows": [[[...]]]} → {"stats": {...}}
//	POST   /v1/stream/adapt               enqueue windows for background adaptation → 202 (429 when full)
//	GET    /v1/stream/stats               streaming queue depth, folds, drift trajectory, target set
//	POST   /v1/stream/rollback            restore the pre-drift checkpoint (409 no_checkpoint without one)
//	POST   /v1/checkpoint                 persist a durable checkpoint now (409 no_state_dir without -state-dir)
//	GET    /v1/model                      canonical bundle bytes (byte-identical to the file)
//	GET    /v1/models                     registry listing
//	POST   /v1/models/{name}              upload a bundle (create or atomic hot swap; LRU-evicts past -max-models)
//	GET    /v1/models/{name}              canonical named bundle bytes
//	DELETE /v1/models/{name}              remove a named model (the default is pinned)
//	POST   /v1/models/{name}/predict      per-model predict (also .../adapt, .../stream/adapt, .../stream/stats, .../stream/rollback, .../checkpoint)
//	GET    /healthz                       liveness + model summary
//	GET    /metrics                       per-endpoint, per-stage, and per-model counters
//
// Durability: with -state-dir every model's bundle (and drift-rollback
// checkpoint) is persisted there via temp-file + fsync + atomic rename — on
// the -checkpoint-interval cadence for every model that changed (a fold,
// strategy change, spawn, rollback, upload or swap), after every
// -checkpoint-folds changes, on POST .../checkpoint, and at shutdown. A
// change acknowledged with a 2xx is on disk within one -checkpoint-interval
// plus one checkpoint's duration. On restart the last good generation of
// every model is recovered; torn or corrupt files fall back to the previous
// generation, so a kill -9 mid-write never loses more than the changes since
// the last checkpoint.
//
// Overload protection: -request-timeout bounds each request's handler work
// (503 deadline_exceeded past it), -max-in-flight caps concurrently admitted
// model-route requests (429 overloaded past it), and -breaker-threshold opens
// a per-model circuit after that many consecutive stream-fold failures (503
// adapter_open until -breaker-cooldown elapses, then one probe batch). Every
// 429/503 carries a Retry-After header.
//
// Fault injection (testing only): -fault (or SMORE_FAULT) arms deterministic
// seeded failure injectors by name, e.g.
// "persist.torn:times=1,stream.fold.err:p=0.1"; see internal/fault for the
// point registry and spec grammar. Off (the default) it costs one atomic
// load per hook.
//
// On SIGINT/SIGTERM the server stops listening, waits for in-flight
// requests, drains the streaming queue into the model, and — with -state-dir
// — takes a final checkpoint before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"go-arxiv/smore/internal/fault"
	"go-arxiv/smore/internal/pipeline"
	"go-arxiv/smore/internal/serve"
	"go-arxiv/smore/internal/stream"
)

// envUint64 parses an environment variable as a uint64 flag default.
func envUint64(name string, def uint64) uint64 {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		log.Fatalf("smore-serve: %s: %v", name, err)
	}
	return n
}

// pprofListenAddr normalizes the -pprof-addr flag: a bare port or
// ":port" binds localhost, so profiling is never exposed on all
// interfaces unless an explicit host is given.
func pprofListenAddr(addr string) string {
	if !strings.Contains(addr, ":") {
		return "127.0.0.1:" + addr
	}
	if strings.HasPrefix(addr, ":") {
		return "127.0.0.1" + addr
	}
	return addr
}

// startPprof serves net/http/pprof on its own mux and listener, separate
// from the public API surface, so the debug endpoints never ride along on
// the serving address. The listen happens synchronously so a bad or in-use
// -pprof-addr fails the process at startup instead of logging success and
// dying silently in a goroutine.
func startPprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{
		Handler: mux,
		// Slow-client bounds, mirroring the main listener. Write stays
		// generous because /debug/pprof/profile and /trace stream for
		// their whole sampling window.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("smore-serve: pprof listener: %v", err)
	}
	log.Printf("smore-serve: pprof on http://%s/debug/pprof/", ln.Addr())
	go func() {
		if err := srv.Serve(ln); err != nil {
			log.Printf("smore-serve: pprof listener: %v", err)
		}
	}()
}

func main() {
	var (
		load         = flag.String("load", "", "model bundle to serve (required; written by smore train -save)")
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "worker-pool size for encode/predict batches (0 = all cores)")
		maxBatch     = flag.Int("max-batch", 1024, "maximum windows per request")
		maxBody      = flag.Int64("max-body", 32<<20, "maximum request body bytes")
		streamQueue  = flag.Int("stream-queue", 4096, "streaming adaptation queue capacity in windows (full queue → 429)")
		streamBatch  = flag.Int("stream-batch", 256, "maximum windows folded per background adaptation batch")
		maxModels    = flag.Int("max-models", 8, "maximum named models held by the registry (uploads past the cap LRU-evict)")
		readTimeout  = flag.Duration("read-timeout", time.Minute, "maximum duration for reading an entire request")
		writeTimeout = flag.Duration("write-timeout", 2*time.Minute, "maximum duration for writing a response")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown budget for in-flight requests, then again for the stream queue")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (opt-in; a bare port like 6060 binds localhost); empty disables")
		driftPolicy  = flag.String("drift-policy", "", "spawn fresh target domains on streamed drift: none | spawn[:threshold] | spawn+retire[:threshold] (empty = none, EMA still tracked)")
		maxTargets   = flag.Int("max-targets", 0, "live-target cap per model under a retiring drift policy (0 = default)")

		stateDir     = flag.String("state-dir", "", "durable checkpoint directory; empty disables checkpointing and recovery")
		ckptInterval = flag.Duration("checkpoint-interval", 30*time.Second, "periodic checkpoint cadence for models changed since their last checkpoint by a fold, strategy change, spawn, rollback, upload or swap (0 disables the ticker)")
		ckptFolds    = flag.Int("checkpoint-folds", 0, "checkpoint a model once this many changes (each stream fold is one, a drift spawn or strategy change one more) accumulate since its last checkpoint, checked after each stream fold (0 disables the trigger)")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-request handler deadline; past it the request fails 503 deadline_exceeded (0 disables)")
		maxInFlight  = flag.Int("max-in-flight", 0, "concurrently admitted model-route requests; past the cap requests fail 429 overloaded (0 disables)")
		brThreshold  = flag.Int("breaker-threshold", 0, "consecutive stream-fold failures that open a model's circuit → 503 adapter_open (0 disables)")
		brCooldown   = flag.Duration("breaker-cooldown", 5*time.Second, "open-circuit duration before the half-open probe batch")
		faultSpec    = flag.String("fault", os.Getenv("SMORE_FAULT"), "deterministic fault-injection spec, e.g. \"persist.torn:times=1,stream.fold.err:p=0.1\" (testing only; also SMORE_FAULT)")
		faultSeed    = flag.Uint64("fault-seed", envUint64("SMORE_FAULT_SEED", 1), "seed for the fault injectors' deterministic randomness (also SMORE_FAULT_SEED)")
	)
	flag.Parse()
	if *faultSpec != "" {
		if err := fault.Enable(*faultSpec, *faultSeed); err != nil {
			log.Fatalf("smore-serve: %v", err)
		}
		log.Printf("smore-serve: FAULT INJECTION ARMED: %s (seed %d)", fault.Spec(), *faultSeed)
	}
	if *load == "" {
		fmt.Fprintln(os.Stderr, "smore-serve: -load is required")
		flag.Usage()
		os.Exit(2)
	}

	b, err := pipeline.LoadBundleFile(*load)
	if err != nil {
		log.Fatalf("smore-serve: %v", err)
	}
	policy, err := stream.ParseDriftPolicy(*driftPolicy)
	if err != nil {
		log.Fatalf("smore-serve: %v", err)
	}
	srv, err := serve.New(b, serve.Options{
		Workers: *workers, MaxBatch: *maxBatch, MaxBody: *maxBody,
		StreamQueue: *streamQueue, StreamBatch: *streamBatch,
		DriftPolicy: policy, MaxTargets: *maxTargets,
		MaxModels: *maxModels,
		StateDir:  *stateDir, CheckpointInterval: *ckptInterval, CheckpointFolds: *ckptFolds,
		RequestTimeout: *reqTimeout, MaxInFlight: *maxInFlight,
		BreakerThreshold: *brThreshold, BreakerCooldown: *brCooldown,
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatalf("smore-serve: %v", err)
	}
	log.Printf("smore-serve: serving on %s (load=%s drift-policy=%s stream-queue=%d stream-batch=%d max-models=%d)",
		*addr, *load, policy.Name(), *streamQueue, *streamBatch, *maxModels)
	if *pprofAddr != "" {
		startPprof(pprofListenAddr(*pprofAddr))
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	select {
	case err := <-serveErr:
		// The listener failed outright (bad address, port in use).
		log.Fatalf("smore-serve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting on the drain
	log.Print("smore-serve: shutting down: draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("smore-serve: http shutdown: %v", err)
	}
	cancel()
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("smore-serve: %v", err)
	}
	st := srv.StreamStats()
	if !st.Drained() {
		log.Printf("smore-serve: draining stream queue (%d queued, %d in flight)", st.QueueDepth, st.InFlight)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	drainErr := srv.Close(drainCtx)
	cancel()
	st = srv.StreamStats()
	log.Printf("smore-serve: shut down (stream: %d windows folded in %d batches, %d dropped)",
		st.WindowsFolded, st.BatchesFolded, st.Dropped)
	if drainErr != nil {
		// 202-accepted windows were discarded; make that visible to
		// supervisors instead of reporting a clean shutdown.
		log.Fatalf("smore-serve: stream drain: %v (%d windows lost)", drainErr, st.QueueDepth+st.InFlight)
	}
}
