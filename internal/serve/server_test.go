package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"go-arxiv/smore/internal/data"
	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
	"go-arxiv/smore/internal/stream"
)

// testArtifacts trains a small deterministic pipeline and returns the
// artifacts plus raw target windows for request bodies.
func testArtifacts(t *testing.T) (*pipeline.Artifacts, [][][]float64) {
	t.Helper()
	cfg := pipeline.Config{
		Encoder: encode.Config{
			Dim: 512, Sensors: 2, Levels: 8, NGram: 2, Min: -3, Max: 3, Seed: 7,
		},
		Model: model.Config{
			Dim: 512, Classes: 3, RetrainEpochs: 1, AdaptEpochs: 3,
			Confidence: 0.005, AdaptRate: 2,
		},
		Data: data.Config{
			Sensors: 2, Classes: 3, WindowLen: 16, PerClass: 8, Seed: 7,
			Domains: pipeline.DefaultDomains(1),
		},
		TrainFrac: 0.75,
		Workers:   2,
	}
	art, err := pipeline.Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := data.Generate(cfg.Data)
	if err != nil {
		t.Fatal(err)
	}
	return art, data.Windows(ds.Domains[len(ds.Domains)-1])
}

func testServer(t *testing.T) (*Server, *httptest.Server, *pipeline.Artifacts, [][][]float64) {
	return testServerOpts(t, Options{Workers: 2, MaxBatch: 64})
}

func testServerOpts(t *testing.T, opt Options) (*Server, *httptest.Server, *pipeline.Artifacts, [][][]float64) {
	t.Helper()
	art, windows := testArtifacts(t)
	srv, err := New(art.Bundle(), opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return srv, ts, art, windows
}

// waitStreamDrained polls the stats endpoint until the queue is empty, no
// fold is in flight, and the given number of windows has been folded.
func waitStreamDrained(t *testing.T, url string, wantFolded int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/stream/stats")
		if err != nil {
			t.Fatal(err)
		}
		st := decodeBody[stream.Stats](t, resp)
		if st.Drained() && st.WindowsFolded == wantFolded {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream never drained: %+v (want %d windows folded)", st, wantFolded)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPredictMatchesDirectBatch serves a 130-window batch, which the server
// encodes in three chunks, with and without a request deadline: the answer
// must equal one direct EncodeBatch + PredictBatch over the whole batch, and
// a bad window must be reported by its index in the request.
func TestPredictMatchesDirectBatch(t *testing.T) {
	ds, err := data.Generate(data.Config{
		Sensors: 2, Classes: 3, WindowLen: 16, PerClass: 44, Seed: 8,
		Domains: pipeline.DefaultDomains(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := data.Windows(ds.Domains[len(ds.Domains)-1])[:130]
	for _, timeout := range []time.Duration{0, time.Minute} {
		t.Run(fmt.Sprintf("timeout=%v", timeout), func(t *testing.T) {
			_, ts, art, _ := testServerOpts(t, Options{Workers: 2, MaxBatch: 256, RequestTimeout: timeout})
			resp := postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: batch})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("predict status %d", resp.StatusCode)
			}
			got := decodeBody[predictResponse](t, resp)
			hvs, err := art.Encoder.EncodeBatch(batch, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := art.Model.Snapshot().PredictBatch(hvs, 1)
			if len(got.Predictions) != len(want) {
				t.Fatalf("got %d predictions, want %d", len(got.Predictions), len(want))
			}
			for i := range want {
				if got.Predictions[i] != want[i] {
					t.Fatalf("prediction %d: served %d, direct %d", i, got.Predictions[i], want[i])
				}
			}
			if got.Adapted {
				t.Fatal("server reports adapted before any /v1/adapt call")
			}

			bad := slices.Clone(batch)
			bad[100] = bad[100][:1]
			resp = postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: bad})
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("bad window: status %d, want 400", resp.StatusCode)
			}
			if msg := decodeBody[errEnvelope](t, resp).Error.Message; !strings.HasPrefix(msg, "window 100 ") {
				t.Fatalf("bad window reported as %q, want window 100", msg)
			}
		})
	}
}

func TestAdaptThenPredictUsesAdaptedModel(t *testing.T) {
	_, ts, art, windows := testServer(t)
	resp := postJSON(t, ts.URL+"/v1/adapt", predictRequest{Windows: windows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adapt status %d", resp.StatusCode)
	}
	ar := decodeBody[adaptResponse](t, resp)
	if !ar.Adapted {
		t.Fatal("adapt response does not report an adapted model")
	}
	if ar.Stats.PseudoLabels == 0 {
		t.Fatal("adaptation applied no pseudo-labels")
	}

	// The served predictions must now match a direct AdaptIncremental on an
	// identical copy of the model.
	ref, refWindows := testArtifacts(t)
	hvs, err := ref.Encoder.EncodeBatch(refWindows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Model.AdaptIncremental(hvs, 1); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: windows[:8]})
	got := decodeBody[predictResponse](t, resp)
	if !got.Adapted {
		t.Fatal("predict response does not report the adapted model")
	}
	queryHVs, err := art.Encoder.EncodeBatch(windows[:8], 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Model.Snapshot().PredictBatch(queryHVs, 1)
	for i := range want {
		if got.Predictions[i] != want[i] {
			t.Fatalf("post-adapt prediction %d: served %d, direct %d", i, got.Predictions[i], want[i])
		}
	}

	// A second incremental batch must keep working.
	resp = postJSON(t, ts.URL+"/v1/adapt", predictRequest{Windows: windows[:8]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second adapt status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestModelExportRoundTrips checks the GET /v1/model contract: the exported
// bytes are a loadable bundle whose predictions are byte-identical to the
// served model's, and exporting is canonical (two exports are identical).
func TestModelExportRoundTrips(t *testing.T) {
	_, ts, art, windows := testServer(t)
	get := func() []byte {
		resp, err := http.Get(ts.URL + "/v1/model")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("model status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("model content type %q", ct)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	first := get()
	if !bytes.Equal(first, get()) {
		t.Fatal("two model exports differ: export is not canonical")
	}
	b, err := pipeline.ReadBundle(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	hvs, err := art.Encoder.EncodeBatch(windows[:10], 1)
	if err != nil {
		t.Fatal(err)
	}
	want := art.Model.Snapshot().PredictBatch(hvs, 1)
	got := b.Model.Snapshot().PredictBatch(hvs, 1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d: exported model %d, served model %d", i, got[i], want[i])
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts, _, windows := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[map[string]any](t, resp)
	if h["status"] != "ok" {
		t.Fatalf("healthz status %v", h["status"])
	}
	if h["dim"].(float64) != 512 {
		t.Fatalf("healthz dim %v", h["dim"])
	}

	// Drive one predict so the counters move, then scrape.
	postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: windows[:2]}).Body.Close()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`smore_requests_total{endpoint="predict"} 1`,
		`smore_request_errors_total{endpoint="predict"} 0`,
		`smore_stage_ops_total{stage="encode"} 1`,
		`smore_stage_ops_total{stage="infer"} 1`,
		`smore_model_adapted{model="default"} 0`,
		`smore_model_dim{model="default"} 512`,
		"smore_models 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if !strings.Contains(text, "smore_stage_latency_seconds_total") {
		t.Error("metrics output missing per-stage latency counters")
	}
}

// blockingRule is a confidence rule whose Assess parks until released, so a
// test can hold an adaptation fold — and with it the ensemble's mutator
// lock — open for as long as it needs.
type blockingRule struct {
	entered, release chan struct{}
	once             sync.Once
}

func (r *blockingRule) Name() string { return "margin" }

func (r *blockingRule) Assess(scores []float64) (int, float64, float64) {
	r.once.Do(func() { close(r.entered) })
	<-r.release
	return model.MarginConfidence{}.Assess(scores)
}

// TestHealthzAnswersDuringFold pins that no read waits on an adaptation
// fold: while a fold holds the model's mutator lock, the liveness probe,
// the metrics scrape, the registry listing and the stream stats must all
// answer from the published snapshot.
func TestHealthzAnswersDuringFold(t *testing.T) {
	_, ts, art, windows := testServer(t)
	rule := &blockingRule{entered: make(chan struct{}), release: make(chan struct{})}
	art.Model.SetStrategy(model.Strategy{Confidence: rule})
	release := sync.OnceFunc(func() { close(rule.release) })
	defer release()

	body, err := json.Marshal(predictRequest{Windows: windows[:4]})
	if err != nil {
		t.Fatal(err)
	}
	adapted := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/adapt", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("adapt returned %d", resp.StatusCode)
			}
		}
		adapted <- err
	}()
	select {
	case <-rule.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the adapt fold never started")
	}

	client := &http.Client{Timeout: 2 * time.Second}
	for _, tt := range []struct {
		name, path, want string
	}{
		{"healthz", "/healthz", `"models":1`},
		{"metrics", "/metrics", "smore_models 1"},
		{"models", "/v1/models", `"name":"default"`},
		{"stream_stats", "/v1/stream/stats", `"has_checkpoint":false`},
	} {
		t.Run(tt.name, func(t *testing.T) {
			resp, err := client.Get(ts.URL + tt.path)
			if err != nil {
				t.Fatalf("%s did not answer while a fold held the model lock: %v", tt.path, err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), tt.want) {
				t.Fatalf("%s during a fold = %d %s, want 200 with %s", tt.path, resp.StatusCode, raw, tt.want)
			}
		})
	}
	release()
	if err := <-adapted; err != nil {
		t.Fatal(err)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts, _, windows := testServer(t)
	tests := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"bad json", "POST", "/v1/predict", "{nope", http.StatusBadRequest},
		{"empty windows", "POST", "/v1/predict", `{"windows":[]}`, http.StatusBadRequest},
		{"ragged window", "POST", "/v1/predict", `{"windows":[[[0.1],[0.2]]]}`, http.StatusBadRequest},
		{"short window", "POST", "/v1/predict", `{"windows":[[[0.1,0.2]]]}`, http.StatusBadRequest},
		{"bad json adapt", "POST", "/v1/adapt", "{nope", http.StatusBadRequest},
		{"predict wrong method", "GET", "/v1/predict", "", http.StatusMethodNotAllowed},
		{"model wrong method", "POST", "/v1/model", "{}", http.StatusMethodNotAllowed},
		{"unknown route", "GET", "/v1/nope", "", http.StatusNotFound},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req, err := http.NewRequest(tt.method, ts.URL+tt.path, strings.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tt.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tt.status)
			}
		})
	}

	// Oversized batch → 413.
	big := predictRequest{Windows: make([][][]float64, 65)}
	for i := range big.Windows {
		big.Windows[i] = windows[0]
	}
	resp := postJSON(t, ts.URL+"/v1/predict", big)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d, want 413", resp.StatusCode)
	}
}

// TestConcurrentPredictAndAdapt hammers the server with mixed traffic; run
// under -race it proves the lock discipline around the shared ensemble.
func TestConcurrentPredictAndAdapt(t *testing.T) {
	_, ts, _, windows := testServer(t)
	done := make(chan error, 8)
	for w := range 8 {
		go func(w int) {
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			for i := range 6 {
				path := "/v1/predict"
				if w == 0 && i%2 == 1 {
					path = "/v1/adapt"
				}
				lo := rng.IntN(len(windows) - 2)
				raw, err := json.Marshal(predictRequest{Windows: windows[lo : lo+2]})
				if err != nil {
					done <- err
					return
				}
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
				if err != nil {
					done <- err
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("%s returned %d", path, resp.StatusCode)
					return
				}
			}
			done <- nil
		}(w)
	}
	for range 8 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamAdaptFoldsInBackground checks the streaming happy path: enqueue
// returns 202 immediately, the background adapter folds the windows, and the
// resulting model matches a direct AdaptIncremental of the same batch.
func TestStreamAdaptFoldsInBackground(t *testing.T) {
	// StreamBatch ≥ the posted batch and a single Enqueue ⇒ exactly one
	// fold of exactly these windows, so the model is reproducible.
	_, ts, art, windows := testServerOpts(t, Options{Workers: 2, MaxBatch: 64, StreamBatch: 64})
	batch := windows[:12]
	resp := postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: batch})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stream adapt status %d, want 202", resp.StatusCode)
	}
	ack := decodeBody[streamAdaptResponse](t, resp)
	if ack.Accepted != 12 {
		t.Fatalf("accepted %d windows, want 12", ack.Accepted)
	}
	waitStreamDrained(t, ts.URL, 12)

	resp, err := http.Get(ts.URL + "/v1/stream/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[stream.Stats](t, resp)
	if st.BatchesFolded != 1 || st.Enqueued != 12 || st.Dropped != 0 {
		t.Fatalf("stats %+v: want exactly one 12-window fold, no drops", st)
	}
	if st.Adapt.PseudoLabels == 0 {
		t.Fatal("streamed fold applied no pseudo-labels")
	}

	// Served predictions must now match a reference model folded once with
	// the identical batch.
	ref, refWindows := testArtifacts(t)
	refHVs, err := ref.Encoder.EncodeBatch(refWindows[:12], 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Model.AdaptIncremental(refHVs, 1); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: windows[:8]})
	got := decodeBody[predictResponse](t, resp)
	if !got.Adapted {
		t.Fatal("predict does not report the streamed-in adapted model")
	}
	queryHVs, err := art.Encoder.EncodeBatch(windows[:8], 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Model.Snapshot().PredictBatch(queryHVs, 1)
	for i := range want {
		if got.Predictions[i] != want[i] {
			t.Fatalf("post-stream prediction %d: served %d, direct %d", i, got.Predictions[i], want[i])
		}
	}
}

// TestStreamAdaptBackpressure is the acceptance test for queue-full
// behavior: a batch the queue could never hold is rejected terminally
// (413), a batch that only *currently* does not fit returns 429 immediately
// (nothing is silently dropped or blocked), and the queue keeps accepting
// once drained.
func TestStreamAdaptBackpressure(t *testing.T) {
	srv, ts, art, windows := testServerOpts(t, Options{Workers: 2, MaxBatch: 64, StreamQueue: 2, StreamBatch: 1})

	// Larger than the whole queue ⇒ can never fit ⇒ terminal 413, not a
	// retry-later signal, and not a counted queue drop.
	resp := postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[:3]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("never-fitting stream adapt status %d, want 413", resp.StatusCode)
	}
	if st := srv.StreamStats(); st.Dropped != 0 || st.Enqueued != 0 {
		t.Fatalf("stats %+v: a 413 must not touch the queue counters", st)
	}

	// Genuine transient fullness: hold the worker's fold open, let it take
	// one window in-flight, fill the queue to capacity, and then a batch
	// that would fit an empty queue gets 429.
	rule := &blockingRule{entered: make(chan struct{}), release: make(chan struct{})}
	art.Model.SetStrategy(model.Strategy{Confidence: rule})
	unlock := sync.OnceFunc(func() { close(rule.release) })
	defer unlock()
	resp = postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[:1]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first stream adapt status %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.StreamStats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never picked up the gated window: %+v", srv.StreamStats())
		}
		time.Sleep(time.Millisecond)
	}
	resp = postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[1:3]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling stream adapt status %d, want 202", resp.StatusCode)
	}
	start := time.Now()
	resp = postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[3:4]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue stream adapt status %d, want 429", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("429 took %v: a full queue must reject immediately, not block", elapsed)
	}
	if st := srv.StreamStats(); st.Dropped != 1 {
		t.Fatalf("stats %+v: the rejected window must count as 1 drop", st)
	}

	// Release the fold; everything accepted must drain and fold.
	unlock()
	waitStreamDrained(t, ts.URL, 3)
}

// TestStreamAdaptRejectsMalformedWindows checks that windows the encoder
// would choke on are 400-rejected before enqueueing: the background worker
// coalesces many requests into one encode batch, so a bad window that got a
// 202 would silently destroy other clients' accepted windows.
func TestStreamAdaptRejectsMalformedWindows(t *testing.T) {
	srv, ts, _, windows := testServer(t)
	bad := [][][]float64{
		{{0.1, 0.2}},                // 1 timestep < ngram 2
		{{0.1}, {0.2}},              // wrong sensor count
		{{0.1, 0.2}, {0.3}},         // ragged
		{{0.1, 0.2}, {0.3, 0.4, 5}}, // too many sensors
	}
	for i, win := range bad {
		resp := postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: [][][]float64{windows[0], win}})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed window %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	if st := srv.StreamStats(); st.Enqueued != 0 {
		t.Fatalf("stats %+v: rejected batches must not be partially enqueued", st)
	}
}

// TestDecodeRejectsTrailingGarbage pins the fix for bodies with bytes after
// the JSON object: they must 400 instead of silently succeeding.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	_, ts, _, windows := testServer(t)
	raw, err := json.Marshal(predictRequest{Windows: windows[:1]})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/predict", "/v1/adapt", "/v1/stream/adapt"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(append(raw[:len(raw):len(raw)], "junk"...)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with trailing garbage: status %d, want 400", path, resp.StatusCode)
		}
		resp, err = http.Post(ts.URL+path, "application/json", bytes.NewReader(append(raw[:len(raw):len(raw)], " \n\t"...)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 400 {
			t.Errorf("%s with trailing whitespace: status %d, want success", path, resp.StatusCode)
		}
	}
}

// TestAdaptErrorMapping pins the validation/conflict split on adaptation
// failures.
func TestAdaptErrorMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
	}{
		{fmt.Errorf("%w: target 0 has dimension 64, model wants 512", model.ErrInvalidTargets), http.StatusBadRequest},
		{fmt.Errorf("%w: no target samples", model.ErrInvalidTargets), http.StatusBadRequest},
		{fmt.Errorf("%w: Adapt before Train", model.ErrNotTrained), http.StatusConflict},
		{errors.New("disk caught fire"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := adaptError(c.err); got.status != c.status {
			t.Errorf("adaptError(%v) status %d, want %d", c.err, got.status, c.status)
		}
	}
}

// TestMetricsAndHealthzAreCounted checks that scraping and health probes go
// through the same per-endpoint accounting as the data-plane endpoints.
func TestMetricsAndHealthzAreCounted(t *testing.T) {
	_, ts, _, _ := testServer(t)
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`smore_requests_total{endpoint="healthz"} 1`,
		`smore_requests_total{endpoint="metrics"} 1`, // the first scrape; this one commits after render
		`smore_stream_queue_depth{model="default"} 0`,
		`smore_stream_queue_capacity{model="default"} 4096`,
		`smore_stream_windows_enqueued_total{model="default"} 0`,
		`smore_stream_errors_total{model="default",stage="encode"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestConcurrentStreamPredictExport hammers the server with mixed streaming,
// prediction, and export traffic. Run under -race it proves the lock
// discipline: every exported bundle must be fully decodable (never a
// half-folded model) and every prediction batch well-formed.
func TestConcurrentStreamPredictExport(t *testing.T) {
	srv, ts, _, windows := testServerOpts(t, Options{Workers: 2, MaxBatch: 64, StreamQueue: 256, StreamBatch: 8})
	classes := srv.reg.def.Load().model.Config().Classes
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	for w := range 4 { // streaming producers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for range 10 {
				lo := rng.IntN(len(windows) - 4)
				raw, _ := json.Marshal(predictRequest{Windows: windows[lo : lo+4]})
				resp, err := http.Post(ts.URL+"/v1/stream/adapt", "application/json", bytes.NewReader(raw))
				if err != nil {
					report(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusTooManyRequests {
					report(fmt.Errorf("stream adapt returned %d", resp.StatusCode))
					return
				}
			}
		}(w)
	}
	for w := range 4 { // prediction readers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 2))
			for range 10 {
				lo := rng.IntN(len(windows) - 3)
				raw, _ := json.Marshal(predictRequest{Windows: windows[lo : lo+3]})
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(raw))
				if err != nil {
					report(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					report(fmt.Errorf("predict returned %d", resp.StatusCode))
					return
				}
				var pr predictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil {
					report(fmt.Errorf("predict body: %w", err))
					return
				}
				if len(pr.Predictions) != 3 {
					report(fmt.Errorf("predict returned %d predictions, want 3", len(pr.Predictions)))
					return
				}
				for _, p := range pr.Predictions {
					if p < 0 || p >= classes {
						report(fmt.Errorf("prediction %d outside [0,%d)", p, classes))
						return
					}
				}
			}
		}(w)
	}
	for range 2 { // model exporters
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 8 {
				resp, err := http.Get(ts.URL + "/v1/model")
				if err != nil {
					report(err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					report(fmt.Errorf("model body: %w", err))
					return
				}
				if _, err := pipeline.ReadBundle(bytes.NewReader(raw)); err != nil {
					report(fmt.Errorf("exported bundle is not decodable mid-stream: %w", err))
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// Everything accepted must eventually fold, and the folded model must
	// still export cleanly after the dust settles.
	st := srv.StreamStats()
	waitStreamDrained(t, ts.URL, st.Enqueued)
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.ReadBundle(bytes.NewReader(raw)); err != nil {
		t.Fatalf("post-drain export not decodable: %v", err)
	}
}
