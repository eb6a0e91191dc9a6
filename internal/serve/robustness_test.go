package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"go-arxiv/smore/internal/fault"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/stream"
)

// enableFault arms a fault spec for one test and guarantees it is disarmed
// before the test's server shuts down (cleanups run LIFO, so register after
// building the server).
func enableFault(t *testing.T, spec string, seed uint64) {
	t.Helper()
	if err := fault.Enable(spec, seed); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
}

// exportModel fetches the canonical default bundle bytes.
func exportModel(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 2, MaxBatch: 64, StreamBatch: 64, StateDir: dir}
	srv, ts, art, windows := testServerOpts(t, opts)

	// Fold some streamed windows so the served state differs from the boot
	// bundle, then spawn a target so a drift-rollback checkpoint exists.
	resp := postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[:8]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stream adapt: status %d", resp.StatusCode)
	}
	waitStreamDrained(t, ts.URL, 8)
	if _, _, err := srv.reg.def.Load().model.SpawnTarget("shifted", 4, false); err != nil {
		t.Fatal(err)
	}

	resp = postJSON(t, ts.URL+"/v1/checkpoint", struct{}{})
	ck := decodeBody[map[string]any](t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d body %v", resp.StatusCode, ck)
	}
	if gen := ck["generation"].(float64); gen != 1 {
		t.Fatalf("first checkpoint generation = %v, want 1", gen)
	}
	want := exportModel(t, ts.URL)
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// A fresh server booted from the ORIGINAL artifacts must recover the
	// checkpointed state — byte-identical export — and the rollback
	// checkpoint must survive the restart.
	srv2, err := New(art.Bundle(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest2(t, srv2)
	if got := exportModel(t, ts2.URL); !bytes.Equal(got, want) {
		t.Fatalf("recovered export differs from checkpointed export (%d vs %d bytes)", len(got), len(want))
	}
	resp, err = http.Get(ts2.URL + "/v1/stream/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[streamStatsResponse](t, resp)
	if !st.HasCheckpoint {
		t.Fatal("drift rollback checkpoint did not survive the restart")
	}
	resp = postJSON(t, ts2.URL+"/v1/stream/rollback", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback after recovery: status %d", resp.StatusCode)
	}
}

// httptest2 wires a second server instance into the test's cleanup stack.
func httptest2(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return ts
}

// TestStartupLogNamesServedDefault boots a dim-512 bundle on a state dir
// whose default is a dim-1024 model: the startup line must describe the
// recovered model New serves, not the bundle it was handed.
func TestStartupLogNamesServedDefault(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var lines []string
	opts := Options{Workers: 2, StateDir: dir, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}}
	requireLine := func(want string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if !slices.Contains(lines, want) {
			t.Fatalf("startup log %q lacks %q", lines, want)
		}
	}

	alt, _ := altArtifacts(t, 11)
	srv, err := New(alt.Bundle(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil { // writes generation 1
		t.Fatal(err)
	}
	requireLine(`serve: model "default" from the boot bundle (dim=1024 classes=3 sensors=3)`)

	art, _ := testArtifacts(t)
	srv2, err := New(art.Bundle(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	requireLine(`serve: model "default" from state dir generation 1 (dim=1024 classes=3 sensors=3)`)
}

func TestCheckpointTornWriteFallsBackToPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 2, MaxBatch: 64, StateDir: dir}
	srv, ts, art, windows := testServerOpts(t, opts)

	resp := postJSON(t, ts.URL+"/v1/checkpoint", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint 1: status %d", resp.StatusCode)
	}
	want := exportModel(t, ts.URL)

	// Mutate the model, then shut down with the torn-write injector armed:
	// the shutdown checkpoint's bundle file lands as a prefix while the
	// injector reports success — the kernel lied, and the server believes
	// generation 2 is durable.
	resp = postJSON(t, ts.URL+"/v1/adapt", predictRequest{Windows: windows[:4]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adapt: status %d", resp.StatusCode)
	}
	enableFault(t, "persist.torn:times=1", 42)
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	fault.Disable()
	if _, err := os.Stat(filepath.Join(dir, DefaultModel, "gen-00000002.smore")); err != nil {
		t.Fatalf("torn generation 2 never landed: %v", err)
	}

	srv2, err := New(art.Bundle(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest2(t, srv2)
	if got := exportModel(t, ts2.URL); !bytes.Equal(got, want) {
		t.Fatal("recovery did not fall back to the previous good generation")
	}
	// The generation counter must have been seeded past the torn file: the
	// next checkpoint may not collide with generation 2's name.
	resp = postJSON(t, ts2.URL+"/v1/checkpoint", struct{}{})
	ck := decodeBody[map[string]any](t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint after recovery: status %d", resp.StatusCode)
	}
	if gen := ck["generation"].(float64); gen <= 2 {
		t.Fatalf("post-recovery generation = %v, want > 2", gen)
	}
}

func TestCheckpointPersistFailureAnswers500(t *testing.T) {
	srv, ts, _, _ := testServerOpts(t, Options{Workers: 2, MaxBatch: 64, StateDir: t.TempDir()})
	enableFault(t, "persist.write", 1)
	resp := postJSON(t, ts.URL+"/v1/checkpoint", struct{}{})
	body := decodeBody[errorEnvelope](t, resp)
	if resp.StatusCode != http.StatusInternalServerError || body.Error.Code != codeCheckpointFailed {
		t.Fatalf("status %d code %q, want 500 %q", resp.StatusCode, body.Error.Code, codeCheckpointFailed)
	}
	if n := srv.reg.def.Load().ckptFailures.Load(); n != 1 {
		t.Fatalf("checkpoint failures = %d, want 1", n)
	}
	fault.Disable()
	resp = postJSON(t, ts.URL+"/v1/checkpoint", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint after clearing fault: status %d", resp.StatusCode)
	}
}

func TestCheckpointWithoutStateDirAnswers409(t *testing.T) {
	_, ts, _, _ := testServer(t)
	resp := postJSON(t, ts.URL+"/v1/checkpoint", struct{}{})
	body := decodeBody[errorEnvelope](t, resp)
	if resp.StatusCode != http.StatusConflict || body.Error.Code != codeNoStateDir {
		t.Fatalf("status %d code %q, want 409 %q", resp.StatusCode, body.Error.Code, codeNoStateDir)
	}
}

func TestBreakerOpensProbesAndCloses(t *testing.T) {
	_, ts, _, windows := testServerOpts(t, Options{
		Workers: 2, MaxBatch: 64, StreamBatch: 1,
		BreakerThreshold: 2, BreakerCooldown: 100 * time.Millisecond,
	})
	// The first two folds fail, tripping the threshold-2 circuit; every fold
	// after that succeeds, so the half-open probe closes it again.
	enableFault(t, "stream.fold.err:times=2", 7)
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[i : i+1]})
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("enqueue %d: status %d", i, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		infos := decodeBody[map[string][]modelInfo](t, mustGet(t, ts.URL+"/v1/models"))["models"]
		if infos[0].Breaker == "open" {
			if infos[0].BreakerOpens != 1 {
				t.Fatalf("breaker opens = %d, want 1", infos[0].BreakerOpens)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", infos[0])
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[:1]})
	body := decodeBody[errorEnvelope](t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || body.Error.Code != codeAdapterOpen {
		t.Fatalf("open circuit: status %d code %q, want 503 %q", resp.StatusCode, body.Error.Code, codeAdapterOpen)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 adapter_open carried no Retry-After header")
	}

	// After the cooldown the next batch is the half-open probe; its fold now
	// succeeds and the circuit closes for good.
	time.Sleep(120 * time.Millisecond)
	resp = postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[2:3]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("half-open probe: status %d", resp.StatusCode)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		infos := decodeBody[map[string][]modelInfo](t, mustGet(t, ts.URL+"/v1/models"))["models"]
		if infos[0].Breaker == "closed" && infos[0].Stream.WindowsFolded == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after probe: %+v", infos[0])
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp = postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[3:4]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-close enqueue: status %d", resp.StatusCode)
	}
	waitStreamDrained(t, ts.URL, 2)
}

// waitBreaker polls the registry listing until the default model's breaker
// reads state with folded windows folded, and returns that entry.
func waitBreaker(t *testing.T, url, state string, folded int64) modelInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := decodeBody[map[string][]modelInfo](t, mustGet(t, url+"/v1/models"))["models"][0]
		if info.Breaker == state && info.Stream.WindowsFolded == folded {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never read %q with %d windows folded: %+v", state, folded, info)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tripBreaker serves a threshold-2, 100ms-cooldown circuit with spec armed,
// streams two windows whose folds spec must fail, waits for the circuit to
// open, and lets its cooldown pass.
func tripBreaker(t *testing.T, spec string) (*httptest.Server, [][][]float64) {
	t.Helper()
	_, ts, _, windows := testServerOpts(t, Options{
		Workers: 2, MaxBatch: 64, StreamQueue: 4, StreamBatch: 1,
		BreakerThreshold: 2, BreakerCooldown: 100 * time.Millisecond,
	})
	enableFault(t, spec, 7)
	for i := range 2 {
		postStatus(t, ts.URL+"/v1/stream/adapt", "application/json",
			mustJSON(t, predictRequest{Windows: windows[i : i+1]}), http.StatusAccepted)
	}
	waitBreaker(t, ts.URL, "open", 0)
	time.Sleep(120 * time.Millisecond)
	return ts, windows
}

// TestRejectedProbeKeepsCircuitUsable pins that only a queued batch can be
// the half-open probe: a request rejected for its size after the cooldown
// must leave the probe to the next request, whose fold closes the circuit.
func TestRejectedProbeKeepsCircuitUsable(t *testing.T) {
	ts, windows := tripBreaker(t, "stream.fold.err:times=2")
	wantError(t, postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[:5]}),
		http.StatusRequestEntityTooLarge, codeBatchTooLarge)
	postStatus(t, ts.URL+"/v1/stream/adapt", "application/json",
		mustJSON(t, predictRequest{Windows: windows[2:3]}), http.StatusAccepted)
	if info := waitBreaker(t, ts.URL, "closed", 1); info.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want 1", info.BreakerOpens)
	}
}

// TestProbeEncodeFailureKeepsCircuitUsable pins that a probe whose encode
// fails, so that no fold ever reports for it, leaves the probe to the next
// request instead of holding the circuit half-open for good.
func TestProbeEncodeFailureKeepsCircuitUsable(t *testing.T) {
	ts, windows := tripBreaker(t, "stream.fold.err:times=2,stream.encode.err:after=2:times=1")
	postStatus(t, ts.URL+"/v1/stream/adapt", "application/json",
		mustJSON(t, predictRequest{Windows: windows[2:3]}), http.StatusAccepted)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := decodeBody[stream.Stats](t, mustGet(t, ts.URL+"/v1/stream/stats"))
		if st.EncodeErrors == 1 && st.Drained() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the probe's encode never failed: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	postStatus(t, ts.URL+"/v1/stream/adapt", "application/json",
		mustJSON(t, predictRequest{Windows: windows[3:4]}), http.StatusAccepted)
	waitBreaker(t, ts.URL, "closed", 1)
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestInFlightCapRejects429WithRetryAfter(t *testing.T) {
	srv, ts, art, windows := testServerOpts(t, Options{Workers: 2, MaxBatch: 64, MaxInFlight: 1})
	// Wedge the single admitted slot: hold the adapt fold open so the
	// request blocks inside its handler while admitted.
	rule := &blockingRule{entered: make(chan struct{}), release: make(chan struct{})}
	art.Model.SetStrategy(model.Strategy{Confidence: rule})
	release := sync.OnceFunc(func() { close(rule.release) })
	defer release()
	done := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/adapt", predictRequest{Windows: windows[:2]})
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.inFlight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: windows[:1]})
	body := decodeBody[errorEnvelope](t, resp)
	if resp.StatusCode != http.StatusTooManyRequests || body.Error.Code != codeOverloaded {
		t.Fatalf("status %d code %q, want 429 %q", resp.StatusCode, body.Error.Code, codeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 overloaded carried no Retry-After header")
	}
	// Stats stay exempt so an overloaded server remains observable.
	resp = mustGet(t, ts.URL+"/v1/stream/stats")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream stats under overload: status %d", resp.StatusCode)
	}

	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("wedged adapt finished with status %d", code)
	}
	resp = postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: windows[:1]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after slot freed: status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(mustGet(t, ts.URL+"/metrics").Body)
	if !strings.Contains(string(raw), "smore_overload_rejects_total 1") {
		t.Fatal("overload rejection not counted in /metrics")
	}
}

func TestRequestDeadlineAnswers503(t *testing.T) {
	_, ts, _, windows := testServerOpts(t, Options{Workers: 2, MaxBatch: 64, RequestTimeout: time.Nanosecond})
	resp := postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: windows[:4]})
	body := decodeBody[errorEnvelope](t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || body.Error.Code != codeDeadlineExceeded {
		t.Fatalf("status %d code %q, want 503 %q", resp.StatusCode, body.Error.Code, codeDeadlineExceeded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 deadline_exceeded carried no Retry-After header")
	}
}

func TestCloseBoundedWhenFoldWedges(t *testing.T) {
	oldTimeout := registryDrainTimeout
	registryDrainTimeout = 200 * time.Millisecond
	t.Cleanup(func() { registryDrainTimeout = oldTimeout })

	srv, ts, _, windows := testServerOpts(t, Options{Workers: 2, MaxBatch: 64, StreamBatch: 1})
	// Every fold stalls well past the (shrunken) drain budget.
	enableFault(t, "stream.fold.slow:delay=2s", 3)
	resp := postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[:6]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue: status %d", resp.StatusCode)
	}

	start := time.Now()
	err := srv.Close(context.Background())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Close with a wedged fold reported success")
	}
	if elapsed > time.Second {
		t.Fatalf("Close took %v with a wedged fold; drain budget is %v", elapsed, registryDrainTimeout)
	}
	st := srv.reg.def.Load().stream.Stats()
	if st.Enqueued != st.WindowsFolded+st.WindowsLost+int64(st.QueueDepth)+int64(st.InFlight) {
		t.Fatalf("queue invariant violated after bounded close: %+v", st)
	}
	if st.WindowsLost == 0 {
		t.Fatalf("bounded close abandoned no windows: %+v", st)
	}
}
