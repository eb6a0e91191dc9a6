package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"go-arxiv/smore/internal/data"
	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
)

// altArtifacts trains a second, deliberately different pipeline (3 sensors,
// dim 1024) so registry tests exercise heterogeneous bundles side by side.
func altArtifacts(t *testing.T, seed uint64) (*pipeline.Artifacts, [][][]float64) {
	t.Helper()
	cfg := pipeline.Config{
		Encoder: encode.Config{
			Dim: 1024, Sensors: 3, Levels: 8, NGram: 2, Min: -3, Max: 3, Seed: seed,
		},
		Model: model.Config{
			Dim: 1024, Classes: 3, RetrainEpochs: 1, AdaptEpochs: 3,
			Confidence: 0.005, AdaptRate: 2,
		},
		Data: data.Config{
			Sensors: 3, Classes: 3, WindowLen: 16, PerClass: 8, Seed: seed,
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

// bundleBytes canonically serializes an artifact's bundle.
func bundleBytes(t *testing.T, art *pipeline.Artifacts) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := art.Bundle().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func uploadBundle(t *testing.T, url, name string, raw []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/models/"+name, "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestRegistryUploadRoundTripsAndServes is the multi-model acceptance test:
// a second named bundle with a different shape uploads (201), round-trips
// byte-identically through GET, serves per-model predictions matching a
// direct evaluation, and shows up in the listing and labeled metrics.
func TestRegistryUploadRoundTripsAndServes(t *testing.T) {
	_, ts, _, defWindows := testServer(t)
	alt, altWindows := altArtifacts(t, 11)
	raw := bundleBytes(t, alt)

	resp := uploadBundle(t, ts.URL, "alt", raw)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d, want 201", resp.StatusCode)
	}
	up := decodeBody[uploadModelResponse](t, resp)
	if up.Name != "alt" || up.Swapped || up.Evicted != "" {
		t.Fatalf("upload response %+v: want a fresh install", up)
	}

	status, exported := getBody(t, ts.URL+"/v1/models/alt")
	if status != http.StatusOK {
		t.Fatalf("named export status %d", status)
	}
	if !bytes.Equal(raw, exported) {
		t.Fatal("named export is not byte-identical to the uploaded bundle")
	}

	// Per-model predict against the 3-sensor model matches direct scoring.
	resp = postJSON(t, ts.URL+"/v1/models/alt/predict", predictRequest{Windows: altWindows[:6]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named predict status %d", resp.StatusCode)
	}
	got := decodeBody[predictResponse](t, resp)
	hvs, err := alt.Encoder.EncodeBatch(altWindows[:6], 1)
	if err != nil {
		t.Fatal(err)
	}
	want := alt.Model.Snapshot().PredictBatch(hvs, 1)
	for i := range want {
		if got.Predictions[i] != want[i] {
			t.Fatalf("named prediction %d: served %d, direct %d", i, got.Predictions[i], want[i])
		}
	}

	// The default model still answers its own (2-sensor) traffic.
	resp = postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: defWindows[:2]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default predict status %d after alt upload", resp.StatusCode)
	}
	// And the alt model rejects 2-sensor windows (separate encoders).
	resp = postJSON(t, ts.URL+"/v1/models/alt/predict", predictRequest{Windows: defWindows[:2]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-shape predict status %d, want 400", resp.StatusCode)
	}

	status, listing := getBody(t, ts.URL+"/v1/models")
	if status != http.StatusOK {
		t.Fatalf("listing status %d", status)
	}
	for _, wantFrag := range []string{`"name":"alt"`, `"name":"default"`, `"dim":1024`, `"dim":512`} {
		if !strings.Contains(string(listing), wantFrag) {
			t.Errorf("listing %s missing %s", listing, wantFrag)
		}
	}
	status, metricsText := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	for _, wantLine := range []string{
		"smore_models 2",
		"smore_model_uploads_total 1",
		`smore_model_dim{model="alt"} 1024`,
		`smore_model_dim{model="default"} 512`,
		`smore_stream_queue_depth{model="alt"} 0`,
	} {
		if !strings.Contains(string(metricsText), wantLine) {
			t.Errorf("metrics output missing %q", wantLine)
		}
	}
}

// TestRegistryHotSwap pins the atomic-swap contract: uploading to an
// existing name answers 200, subsequent requests serve the new bundle, and
// the old instance's state (an adapted fold) is gone.
func TestRegistryHotSwap(t *testing.T) {
	_, ts, _, _ := testServer(t)
	first, firstWindows := altArtifacts(t, 11)
	if _, err := first.Model.AdaptBatch(mustEncode(t, first, firstWindows[:8]), 0); err != nil {
		t.Fatal(err)
	}
	resp := uploadBundle(t, ts.URL, "swap-me", bundleBytes(t, first))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first upload status %d, want 201", resp.StatusCode)
	}

	second, _ := altArtifacts(t, 23) // same shape, different seed → different model
	secondRaw := bundleBytes(t, second)
	resp = uploadBundle(t, ts.URL, "swap-me", secondRaw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap upload status %d, want 200", resp.StatusCode)
	}
	up := decodeBody[uploadModelResponse](t, resp)
	if !up.Swapped {
		t.Fatalf("swap response %+v: want swapped=true", up)
	}
	status, exported := getBody(t, ts.URL+"/v1/models/swap-me")
	if status != http.StatusOK {
		t.Fatalf("post-swap export status %d", status)
	}
	if !bytes.Equal(secondRaw, exported) {
		t.Fatal("post-swap export does not match the swapped-in bundle")
	}
	if bytes.Equal(bundleBytes(t, first), exported) {
		t.Fatal("post-swap export still matches the replaced bundle")
	}
}

// TestRegistryDefaultHotSwap pins that uploading to "default" repoints
// every unnamed route at the new instance: /v1/predict runs the new
// encoder, /v1/model exports the new bytes, /healthz reports the new shape,
// and /v1/stream/adapt keeps accepting (a stale default pointer would keep
// serving the retired instance and answer 503 once its queue closed).
func TestRegistryDefaultHotSwap(t *testing.T) {
	srv, ts, _, defWindows := testServer(t)
	alt, altWindows := altArtifacts(t, 11)
	altRaw := bundleBytes(t, alt)

	resp := uploadBundle(t, ts.URL, DefaultModel, altRaw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default swap status %d, want 200", resp.StatusCode)
	}
	up := decodeBody[uploadModelResponse](t, resp)
	if !up.Swapped || up.Evicted != "" {
		t.Fatalf("default swap response %+v: want swapped=true and no eviction", up)
	}

	status, exported := getBody(t, ts.URL+"/v1/model")
	if status != http.StatusOK {
		t.Fatalf("post-swap default export status %d", status)
	}
	if !bytes.Equal(altRaw, exported) {
		t.Fatal("post-swap /v1/model does not match the swapped-in bundle")
	}

	// The unnamed predict route now runs the new 3-sensor encoder.
	resp = postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: altWindows[:2]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap default predict status %d, want 200", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/predict", predictRequest{Windows: defWindows[:2]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("old-shape predict after default swap status %d, want 400", resp.StatusCode)
	}

	status, health := getBody(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("post-swap healthz status %d", status)
	}
	if !strings.Contains(string(health), `"dim":1024`) {
		t.Fatalf("post-swap healthz %s: want the swapped-in dim 1024", health)
	}

	// The unnamed streaming surface is wired to the live instance, not the
	// retired one whose queue is closing in the background.
	resp = postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: altWindows[:2]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-swap stream adapt status %d, want 202", resp.StatusCode)
	}
	if st := srv.StreamStats(); st.Enqueued < 2 {
		t.Fatalf("StreamStats %+v: want the post-swap enqueue visible on the new default", st)
	}
}

// TestRegistryLRUEviction pins the cap behavior: the least-recently-used
// non-default model is displaced, the default model is never a victim, and
// the evicted name 404s afterwards.
func TestRegistryLRUEviction(t *testing.T) {
	_, ts, _, _ := testServerOpts(t, Options{Workers: 2, MaxBatch: 64, MaxModels: 3})
	art, _ := altArtifacts(t, 11)
	raw := bundleBytes(t, art)

	for _, name := range []string{"a", "b"} { // registry now at cap: default, a, b
		resp := uploadBundle(t, ts.URL, name, raw)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %q status %d, want 201", name, resp.StatusCode)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	status, _ := getBody(t, ts.URL+"/v1/models/a")
	if status != http.StatusOK {
		t.Fatalf("touch of a: status %d", status)
	}
	resp := uploadBundle(t, ts.URL, "c", raw)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload c status %d, want 201", resp.StatusCode)
	}
	up := decodeBody[uploadModelResponse](t, resp)
	if up.Evicted != "b" {
		t.Fatalf("upload c evicted %q, want the LRU victim \"b\"", up.Evicted)
	}
	if status, _ := getBody(t, ts.URL+"/v1/models/b"); status != http.StatusNotFound {
		t.Fatalf("evicted model answers %d, want 404", status)
	}
	for _, name := range []string{"a", "c", DefaultModel} {
		if status, _ := getBody(t, ts.URL+"/v1/models/"+name); status != http.StatusOK {
			t.Fatalf("surviving model %q answers %d, want 200", name, status)
		}
	}
}

// TestRegistryDeleteAndValidation pins the control-plane edges: deleting a
// named model works and frees its slot, the default model is pinned (409),
// unknown names 404, and malformed names or bundles 400.
func TestRegistryDeleteAndValidation(t *testing.T) {
	_, ts, _, _ := testServer(t)
	art, _ := altArtifacts(t, 11)
	raw := bundleBytes(t, art)
	resp := uploadBundle(t, ts.URL, "doomed", raw)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}

	del := func(name string) int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/"+name, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := del("doomed"); status != http.StatusOK {
		t.Fatalf("delete status %d, want 200", status)
	}
	if status, _ := getBody(t, ts.URL+"/v1/models/doomed"); status != http.StatusNotFound {
		t.Fatalf("deleted model answers %d, want 404", status)
	}
	if status := del("doomed"); status != http.StatusNotFound {
		t.Fatalf("double delete status %d, want 404", status)
	}
	if status := del(DefaultModel); status != http.StatusConflict {
		t.Fatalf("default delete status %d, want 409", status)
	}

	resp = uploadBundle(t, ts.URL, "bad|name", raw)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid name upload status %d, want 400", resp.StatusCode)
	}
	resp = uploadBundle(t, ts.URL, "garbage", []byte("not a bundle"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage bundle upload status %d, want 400", resp.StatusCode)
	}
	resp = uploadBundle(t, ts.URL, "trailing", append(bytes.Clone(raw), 0x00))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing-bytes upload status %d, want 400", resp.StatusCode)
	}
}

func mustEncode(t *testing.T, art *pipeline.Artifacts, windows [][][]float64) []hdc.Vector {
	t.Helper()
	hvs, err := art.Encoder.EncodeBatch(windows, 1)
	if err != nil {
		t.Fatal(err)
	}
	return hvs
}

// TestRegistryConcurrentSwapPredict hammers hot swaps against per-model
// predictions; under -race it proves registry lookups and instance handoff
// are safe, and every response is either the old or new model's (never an
// error).
func TestRegistryConcurrentSwapPredict(t *testing.T) {
	_, ts, _, _ := testServer(t)
	a, windows := altArtifacts(t, 11)
	b, _ := altArtifacts(t, 23)
	rawA, rawB := bundleBytes(t, a), bundleBytes(t, b)
	resp := uploadBundle(t, ts.URL, "hot", rawA)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("seed upload status %d", resp.StatusCode)
	}
	done := make(chan error, 5)
	for w := range 4 {
		go func(w int) {
			for range 8 {
				resp := postJSON(t, ts.URL+"/v1/models/hot/predict", predictRequest{Windows: windows[:2]})
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("worker %d: predict during swap returned %d", w, resp.StatusCode)
					return
				}
			}
			done <- nil
		}(w)
	}
	go func() {
		for i := range 6 {
			raw := rawA
			if i%2 == 0 {
				raw = rawB
			}
			resp := uploadBundle(t, ts.URL, "hot", raw)
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				done <- fmt.Errorf("swap %d returned %d", i, resp.StatusCode)
				return
			}
		}
		done <- nil
	}()
	for range 5 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
