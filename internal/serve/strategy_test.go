package serve

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
)

// errEnvelope mirrors the wire shape of the uniform error body, decoded
// independently of the server-side structs so the JSON contract itself is
// what's pinned.
type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// wantError asserts status plus the envelope's machine code.
func wantError(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d", resp.StatusCode, status)
	}
	env := decodeBody[errEnvelope](t, resp)
	if env.Error.Code != code {
		t.Fatalf("error code %q, want %q (message: %q)", env.Error.Code, code, env.Error.Message)
	}
	if env.Error.Message == "" {
		t.Fatalf("error envelope for %q has an empty message", code)
	}
}

// TestErrorEnvelope walks one representative failure per error family and
// asserts every route renders the same {"error":{"code","message"}} body
// with the documented status and stable code.
func TestErrorEnvelope(t *testing.T) {
	_, ts, art, windows := testServerOpts(t, Options{Workers: 2, MaxBatch: 4, StreamQueue: 8})
	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	post := func(path, body string) *http.Response {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("invalid_json", func(t *testing.T) {
		wantError(t, post("/v1/predict", "{nope"), http.StatusBadRequest, codeInvalidJSON)
	})
	t.Run("trailing_data", func(t *testing.T) {
		wantError(t, post("/v1/adapt", `{"windows":[[[0,0]]]}{"again":1}`), http.StatusBadRequest, codeTrailingData)
	})
	t.Run("empty_batch", func(t *testing.T) {
		wantError(t, post("/v1/predict", `{"windows":[]}`), http.StatusBadRequest, codeEmptyBatch)
	})
	t.Run("batch_too_large", func(t *testing.T) {
		wantError(t, postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: windows[:5]}),
			http.StatusRequestEntityTooLarge, codeBatchTooLarge)
	})
	t.Run("bad_window", func(t *testing.T) {
		wantError(t, post("/v1/stream/adapt", `{"windows":[[[1,2,3]]]}`), http.StatusBadRequest, codeBadWindow)
	})
	t.Run("unknown_strategy", func(t *testing.T) {
		for _, spec := range []string{"margin+constant+nope", "margin+anneal+bundle"} {
			wantError(t, postJSON(t, ts.URL+"/v1/adapt", predictRequest{Windows: windows[:2], Strategy: spec}),
				http.StatusBadRequest, codeUnknownStrategy)
		}
	})
	t.Run("unknown_strategy_bundle", func(t *testing.T) {
		wantError(t, uploadBundle(t, ts.URL, "x", annealBundle(t, art)), http.StatusBadRequest, codeUnknownStrategy)
	})
	t.Run("strategy_rejected_on_predict", func(t *testing.T) {
		wantError(t, postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: windows[:2], Strategy: "margin+constant+ema"}),
			http.StatusBadRequest, codeUnknownStrategy)
	})
	t.Run("model_not_found", func(t *testing.T) {
		wantError(t, get("/v1/models/ghost/stream/stats"), http.StatusNotFound, codeModelNotFound)
	})
	t.Run("invalid_model_name", func(t *testing.T) {
		wantError(t, get("/v1/models/.hidden"), http.StatusBadRequest, codeInvalidModelName)
	})
	t.Run("default_pinned", func(t *testing.T) {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/default", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		wantError(t, resp, http.StatusConflict, codeDefaultPinned)
	})
	t.Run("invalid_bundle", func(t *testing.T) {
		wantError(t, post("/v1/models/junk", "not a bundle"), http.StatusBadRequest, codeInvalidBundle)
	})
}

// annealBundle exports a copy of art's model under entropy-cal+constant+ema,
// so the bundle carries an SME2 strategy section, and renames its schedule
// slot to the deleted "anneal" schedule.
func annealBundle(t *testing.T, art *pipeline.Artifacts) []byte {
	t.Helper()
	b, err := pipeline.ReadBundle(bytes.NewReader(bundleBytes(t, art)))
	if err != nil {
		t.Fatal(err)
	}
	strat, err := model.ParseStrategySpec("entropy-cal+constant+ema")
	if err != nil {
		t.Fatal(err)
	}
	b.Model.SetStrategy(strat)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := bytes.Replace(buf.Bytes(), []byte("\x08\x00\x00\x00constant"), []byte("\x06\x00\x00\x00anneal"), 1)
	if bytes.Equal(raw, buf.Bytes()) {
		t.Fatal("exported bundle has no constant schedule slot")
	}
	return raw
}

// TestAdaptStrategySelection pins the per-request strategy surface: the
// adapt route folds under the requested strategy, reports it in the
// response, the model keeps it for later requests, and /v1/models lists it.
func TestAdaptStrategySelection(t *testing.T) {
	_, ts, art, windows := testServer(t)

	// Default strategy is reported when none is requested.
	resp := postJSON(t, ts.URL+"/v1/adapt", predictRequest{Windows: windows[:4]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adapt status %d", resp.StatusCode)
	}
	if got := decodeBody[adaptResponse](t, resp).Strategy; got != "margin+constant+bundle" {
		t.Fatalf("default adapt strategy %q", got)
	}

	// A requested strategy is applied, reported, and sticks on the model.
	resp = postJSON(t, ts.URL+"/v1/adapt", predictRequest{Windows: windows[:4], Strategy: "entropy-cal+constant+ema"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adapt status %d", resp.StatusCode)
	}
	if got := decodeBody[adaptResponse](t, resp).Strategy; got != "entropy-cal+constant+ema" {
		t.Fatalf("adapt strategy %q, want entropy-cal+constant+ema", got)
	}
	if got := art.Model.Snapshot().Strategy().String(); got != "entropy-cal+constant+ema" {
		t.Fatalf("model strategy after adapt %q", got)
	}

	// The registry listing reports the per-model strategy.
	listResp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Models []modelInfo `json:"models"`
	}](t, listResp)
	if len(list.Models) != 1 || list.Models[0].Strategy != "entropy-cal+constant+ema" {
		t.Fatalf("models listing = %+v, want one entry with strategy entropy-cal+constant+ema", list.Models)
	}
}

// TestStreamAdaptStrategySelection pins that a stream request's strategy is
// installed before its windows are folded by the background worker.
func TestStreamAdaptStrategySelection(t *testing.T) {
	_, ts, art, windows := testServer(t)
	resp := postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[:6], Strategy: "margin+constant+ema"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stream adapt status %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitStreamDrained(t, ts.URL, 6)
	if got := art.Model.Snapshot().Strategy().String(); got != "margin+constant+ema" {
		t.Fatalf("model strategy after streamed fold %q, want margin+constant+ema", got)
	}
	if !art.Model.Snapshot().Adapted() {
		t.Fatal("streamed windows did not fold into an adapted model")
	}
	// A bad spec is rejected before anything is enqueued.
	wantError(t, postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[:2], Strategy: "nope"}),
		http.StatusBadRequest, codeUnknownStrategy)
}

// TestUploadStrategyRoundTrip pins that a non-default strategy survives the
// serve-layer export/upload cycle (SME2 inside the bundle).
func TestUploadStrategyRoundTrip(t *testing.T) {
	_, ts, art, _ := testServer(t)
	strat, err := model.ParseStrategySpec("entropy-cal+constant+bundle")
	if err != nil {
		t.Fatal(err)
	}
	art.Model.SetStrategy(strat)

	exp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Body.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/clone", exp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d, want 201", resp.StatusCode)
	}
	listResp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Models []modelInfo `json:"models"`
	}](t, listResp)
	found := false
	for _, m := range list.Models {
		if m.Name == "clone" {
			found = true
			if m.Strategy != "entropy-cal+constant+bundle" {
				t.Fatalf("uploaded clone strategy %q, want entropy-cal+constant+bundle", m.Strategy)
			}
		}
	}
	if !found {
		t.Fatalf("uploaded model missing from listing: %+v", list.Models)
	}
}
