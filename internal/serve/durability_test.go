package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"go-arxiv/smore/internal/model"
)

// newestGeneration returns the bundle bytes of the newest generation that
// name's MANIFEST.json lists, or nil when there is none.
func newestGeneration(t *testing.T, dir, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, name, manifestName))
	if err != nil {
		return nil
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatalf("%s manifest: %v", name, err)
	}
	if len(man.Generations) == 0 {
		return nil
	}
	b, err := os.ReadFile(filepath.Join(dir, name, man.Generations[0].Bundle))
	if err != nil {
		t.Fatalf("%s newest generation: %v", name, err)
	}
	return b
}

// waitDurable polls until name's newest generation holds want.
func waitDurable(t *testing.T, dir, name string, want []byte, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !bytes.Equal(newestGeneration(t, dir, name), want) {
		if time.Now().After(deadline) {
			t.Fatalf("model %q: the newest generation does not hold the served model %v after the change", name, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// exportNamed fetches a named model's canonical bundle bytes.
func exportNamed(t *testing.T, url, name string) []byte {
	t.Helper()
	resp := mustGet(t, url+"/v1/models/"+name)
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export %q: status %d", name, resp.StatusCode)
	}
	return raw
}

// otherBundle returns the bytes of a bundle that differs from the one the
// test servers boot with: the same artifacts, one more fold.
func otherBundle(t *testing.T) []byte {
	t.Helper()
	art, windows := testArtifacts(t)
	hvs, err := art.Encoder.EncodeBatch(windows[:4], 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := art.Model.AdaptIncremental(hvs, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := art.Bundle().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postStatus posts body to path and checks the answer's status.
func postStatus(t *testing.T, url, contentType string, body []byte, status int) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("POST %s: status %d %s, want %d", url, resp.StatusCode, raw, status)
	}
}

// TestDurabilityContract pins the durability contract: a change acknowledged
// with a 2xx is on disk within one checkpoint interval plus one
// checkpoint's duration, whichever route made it, a strategy selected on a
// stream request included. Each row first makes the served state durable
// with an explicit checkpoint, then changes the model through one route, and
// then the newest manifest generation must become byte-equal to the model's
// export.
func TestDurabilityContract(t *testing.T) {
	const interval = 20 * time.Millisecond
	other := otherBundle(t)
	for _, tt := range []struct {
		name   string
		model  string // the model the change lands on
		setup  func(t *testing.T, srv *Server, url string, windows [][][]float64)
		change func(t *testing.T, url string, windows [][][]float64)
	}{
		{name: "stream_fold", model: DefaultModel, change: func(t *testing.T, url string, windows [][][]float64) {
			postStatus(t, url+"/v1/stream/adapt", "application/json", mustJSON(t, predictRequest{Windows: windows[:8]}), http.StatusAccepted)
			waitStreamDrained(t, url, 8)
		}},
		{name: "stream_strategy", model: DefaultModel, change: func(t *testing.T, url string, windows [][][]float64) {
			// Every fold fails, so only the strategy change itself can make
			// the new bytes durable.
			enableFault(t, "stream.fold.err", 1)
			postStatus(t, url+"/v1/stream/adapt", "application/json",
				mustJSON(t, predictRequest{Windows: windows[:8], Strategy: "entropy-cal+constant+ema"}), http.StatusAccepted)
			waitStreamDrained(t, url, 0)
			if raw := exportModel(t, url); string(raw[44:48]) != "SME2" {
				t.Fatalf("the export holds a %q model, want the strategy's SME2", raw[44:48])
			}
		}},
		{name: "sync_adapt", model: DefaultModel, change: func(t *testing.T, url string, windows [][][]float64) {
			postStatus(t, url+"/v1/adapt", "application/json", mustJSON(t, predictRequest{Windows: windows[:4]}), http.StatusOK)
		}},
		{name: "rollback", model: DefaultModel,
			setup: func(t *testing.T, srv *Server, url string, windows [][][]float64) {
				if _, _, err := srv.reg.def.Load().model.SpawnTarget("shifted", 4, false); err != nil {
					t.Fatal(err)
				}
				postStatus(t, url+"/v1/adapt", "application/json", mustJSON(t, predictRequest{Windows: windows[:4]}), http.StatusOK)
			},
			change: func(t *testing.T, url string, windows [][][]float64) {
				postStatus(t, url+"/v1/stream/rollback", "application/json", []byte("{}"), http.StatusOK)
			}},
		{name: "upload", model: "fresh", change: func(t *testing.T, url string, windows [][][]float64) {
			postStatus(t, url+"/v1/models/fresh", "application/octet-stream", other, http.StatusCreated)
		}},
		{name: "swap", model: DefaultModel, change: func(t *testing.T, url string, windows [][][]float64) {
			postStatus(t, url+"/v1/models/"+DefaultModel, "application/octet-stream", other, http.StatusOK)
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, ts, _, windows := testServerOpts(t, Options{
				Workers: 2, MaxBatch: 64, StreamBatch: 64, StateDir: dir, CheckpointInterval: interval,
			})
			if tt.setup != nil {
				tt.setup(t, srv, ts.URL, windows)
			}
			postStatus(t, ts.URL+"/v1/checkpoint", "application/json", []byte("{}"), http.StatusOK)
			before := exportModel(t, ts.URL)
			if !bytes.Equal(newestGeneration(t, dir, DefaultModel), before) {
				t.Fatal("the explicit checkpoint does not hold the served model")
			}
			tt.change(t, ts.URL, windows)
			after := exportNamed(t, ts.URL, tt.model)
			if bytes.Equal(after, before) {
				t.Fatal("the change left the served model unchanged")
			}
			waitDurable(t, dir, tt.model, after, 100*interval)
		})
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// holdFold installs a blockingRule on m and returns it with its idempotent
// release, which the test's cleanup also runs.
func holdFold(t *testing.T, m *model.Ensemble) (*blockingRule, func()) {
	t.Helper()
	rule := &blockingRule{entered: make(chan struct{}), release: make(chan struct{})}
	m.SetStrategy(model.Strategy{Confidence: rule})
	release := sync.OnceFunc(func() { close(rule.release) })
	t.Cleanup(release)
	return rule, release
}

func waitEntered(t *testing.T, rule *blockingRule) {
	t.Helper()
	select {
	case <-rule.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the held fold never started")
	}
}

// waitInstanceDrained waits until a retired instance's adapter has folded
// everything it held.
func waitInstanceDrained(t *testing.T, inst *instance) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st := inst.stream.Stats(); !st.Closed || !st.Drained(); st = inst.stream.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("retired model %q never drained: %+v", inst.name, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentCheckpointsKeepManifestNewestFirst pins the state dir's one
// writer per model: checkpoints requested together, while a fold holds the
// model, land one after another, so every manifest lists its generations
// newest first and the last one names the highest generation handed out.
func TestConcurrentCheckpointsKeepManifestNewestFirst(t *testing.T) {
	dir := t.TempDir()
	srv, ts, art, windows := testServerOpts(t, Options{
		Workers: 2, MaxBatch: 64, StateDir: dir, MaxInFlight: 64, CheckpointInterval: time.Millisecond,
	})
	const requests = 8
	for round := range 12 {
		rule, release := holdFold(t, art.Model)
		adapted := make(chan error, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/adapt", "application/json", bytes.NewReader(mustJSON(t, predictRequest{Windows: windows[:2]})))
			if err == nil {
				resp.Body.Close()
			}
			adapted <- err
		}()
		waitEntered(t, rule)
		gens := make(chan int64, requests)
		errs := make(chan error, requests)
		for range requests {
			go func() {
				resp, err := http.Post(ts.URL+"/v1/checkpoint", "application/json", nil)
				if err != nil {
					errs <- err
					return
				}
				var ck struct {
					Generation int64 `json:"generation"`
				}
				err = json.NewDecoder(resp.Body).Decode(&ck)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("checkpoint: status %d", resp.StatusCode)
				}
				if err != nil {
					errs <- err
					return
				}
				gens <- ck.Generation
			}()
		}
		for deadline := time.Now().Add(10 * time.Second); srv.inFlight.Load() < requests+1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the checkpoint requests never all reached their handler")
			}
		}
		release()
		if err := <-adapted; err != nil {
			t.Fatal(err)
		}
		var newest int64
		for range requests {
			select {
			case err := <-errs:
				t.Fatal(err)
			case g := <-gens:
				newest = max(newest, g)
			}
			man := srv.store.readManifest(DefaultModel)
			for i := 1; i < len(man.Generations); i++ {
				if man.Generations[i-1].Gen <= man.Generations[i].Gen {
					t.Fatalf("round %d: MANIFEST.json lists an older generation first: %+v", round, man.Generations)
				}
			}
		}
		if man := srv.store.readManifest(DefaultModel); man.Generations[0].Gen != newest {
			t.Fatalf("round %d: the manifest's newest generation is %d, want %d: %+v", round, man.Generations[0].Gen, newest, man.Generations)
		}
	}
}

// TestDeleteDuringFoldLeavesNoState pins that a deleted model never writes
// its state dir back: the fold that was running at the DELETE finishes in
// the drain and triggers a checkpoint, which must find the name gone.
func TestDeleteDuringFoldLeavesNoState(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _, windows := testServerOpts(t, Options{Workers: 2, MaxBatch: 64, StreamBatch: 4, StateDir: dir, CheckpointFolds: 1})
	postStatus(t, ts.URL+"/v1/models/x", "application/octet-stream", otherBundle(t), http.StatusCreated)
	postStatus(t, ts.URL+"/v1/models/x/checkpoint", "application/json", nil, http.StatusOK)
	inst, err := srv.reg.get("x")
	if err != nil {
		t.Fatal(err)
	}
	rule, release := holdFold(t, inst.model)
	postStatus(t, ts.URL+"/v1/models/x/stream/adapt", "application/json", mustJSON(t, predictRequest{Windows: windows[:4]}), http.StatusAccepted)
	waitEntered(t, rule)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	release()
	waitInstanceDrained(t, inst)
	if n := inst.stream.Stats().WindowsFolded; n != 4 {
		t.Fatalf("the held fold folded %d windows, want 4", n)
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(filepath.Join(dir, "x")); err == nil {
			t.Fatal("the deleted model's state dir came back after its drain")
		}
	}
}

// TestSwapDuringFoldKeepsUploadNewest pins that a replaced instance never
// writes over its successor: the fold that was running at the swap
// finishes in the drain and triggers a checkpoint, and the newest
// generation must still be the uploaded bundle.
func TestSwapDuringFoldKeepsUploadNewest(t *testing.T) {
	dir := t.TempDir()
	srv, ts, art, windows := testServerOpts(t, Options{
		Workers: 2, MaxBatch: 64, StreamBatch: 4, StateDir: dir, CheckpointFolds: 1, CheckpointInterval: 20 * time.Millisecond,
	})
	postStatus(t, ts.URL+"/v1/checkpoint", "application/json", nil, http.StatusOK)
	old := srv.reg.def.Load()
	rule, release := holdFold(t, art.Model)
	// Other windows than otherBundle's fold, so the retired model's state
	// differs from the upload.
	postStatus(t, ts.URL+"/v1/stream/adapt", "application/json", mustJSON(t, predictRequest{Windows: windows[8:12]}), http.StatusAccepted)
	waitEntered(t, rule)

	upload := otherBundle(t)
	postStatus(t, ts.URL+"/v1/models/"+DefaultModel, "application/octet-stream", upload, http.StatusOK)
	release()
	waitInstanceDrained(t, old)
	if n := old.stream.Stats().WindowsFolded; n != 4 {
		t.Fatalf("the held fold folded %d windows, want 4", n)
	}
	waitDurable(t, dir, DefaultModel, upload, 2*time.Second)
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if !bytes.Equal(newestGeneration(t, dir, DefaultModel), upload) {
			t.Fatal("the replaced model's drain wrote over the uploaded bundle")
		}
	}
}
