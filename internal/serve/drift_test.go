package serve

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"go-arxiv/smore/internal/data"
	"go-arxiv/smore/internal/stream"
)

// shiftedWindows generates windows from a harshly distorted domain — same
// class signatures as the testArtifacts dataset (same Seed) but pushed far
// off the target distribution, so a streamed batch of them reads as drift.
func shiftedWindows(t *testing.T) [][][]float64 {
	t.Helper()
	ds, err := data.Generate(data.Config{
		Sensors: 2, Classes: 3, WindowLen: 16, PerClass: 8, Seed: 7,
		Domains: []data.Shift{{
			Name: "shifted", AmpScale: 0.2, Offset: 2.2, Phase: 1.6, NoiseStd: 0.4,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data.Windows(ds.Domains[0])
}

// exportBytes fetches the canonical bundle bytes off the export route.
func exportBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// driftStats fetches the composite stream-stats body.
func driftStats(t *testing.T, url string) streamStatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stream/stats")
	if err != nil {
		t.Fatal(err)
	}
	return decodeBody[streamStatsResponse](t, resp)
}

// TestStreamRollbackWithoutCheckpoint pins the conflict path: before any
// drift spawn there is nothing to restore.
func TestStreamRollbackWithoutCheckpoint(t *testing.T) {
	_, ts, _, _ := testServer(t)
	resp := postJSON(t, ts.URL+"/v1/stream/rollback", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rollback without checkpoint: status %d, want 409", resp.StatusCode)
	}
	env := decodeBody[errorEnvelope](t, resp)
	if env.Error.Code != codeNoCheckpoint {
		t.Fatalf("error code %q, want %q", env.Error.Code, codeNoCheckpoint)
	}
}

// TestDriftSpawnStatsAndRollback drives the full serving-layer drift loop:
// phase-A streaming establishes the implicit first target and its similarity
// trajectory, a shifted phase-B batch spawns a second target, the stats and
// metrics surfaces report the transition, and POST /v1/stream/rollback
// restores the pre-drift model byte-identically.
func TestDriftSpawnStatsAndRollback(t *testing.T) {
	_, ts, _, windows := testServerOpts(t, Options{
		Workers: 2, MaxBatch: 64, StreamBatch: 8,
		DriftPolicy: stream.DriftPolicy{Spawn: true}, MaxTargets: 4,
	})

	// Phase A: three 8-window folds build target t0 and seed the EMA.
	phaseA := windows[:24]
	resp := postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: phaseA})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("phase A enqueue: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitStreamDrained(t, ts.URL, int64(len(phaseA)))

	st := driftStats(t, ts.URL)
	if st.TargetsSpawned != 0 || st.TargetsLive != 1 {
		t.Fatalf("phase A ended with %d spawns, %d live targets; want 0 and 1 (%+v)", st.TargetsSpawned, st.TargetsLive, st)
	}
	if !st.SimilarityValid {
		t.Fatalf("phase A left no similarity trajectory: %+v", st)
	}
	if st.HasCheckpoint {
		t.Fatal("checkpoint exists before any spawn")
	}
	preDrift := exportBytes(t, ts.URL)

	// Phase B: one strongly shifted batch. The drift check runs before the
	// fold, so the spawn checkpoint is exactly the phase-A state exported
	// above, and the shifted batch folds into the fresh target.
	phaseB := shiftedWindows(t)[:8]
	resp = postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: phaseB})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("phase B enqueue: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitStreamDrained(t, ts.URL, int64(len(phaseA)+len(phaseB)))

	st = driftStats(t, ts.URL)
	if st.TargetsSpawned != 1 || st.TargetsLive != 2 {
		t.Fatalf("phase B: %d spawns, %d live targets; want 1 and 2 (%+v)", st.TargetsSpawned, st.TargetsLive, st)
	}
	if !st.HasCheckpoint {
		t.Fatal("spawn left no checkpoint")
	}
	active := ""
	for _, ti := range st.Targets {
		if ti.Active {
			active = ti.Name
		}
	}
	if active == "t0" || active == "" {
		t.Fatalf("active target after drift = %q, want the freshly spawned one (%+v)", active, st.Targets)
	}

	// The drift transition must be visible on the Prometheus surface.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`smore_model_targets{model="default"} 2`,
		`smore_stream_targets_spawned_total{model="default"} 1`,
		`smore_stream_rollbacks_total{model="default"} 0`,
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Rollback restores the pre-drift bytes and resets the trajectory.
	resp = postJSON(t, ts.URL+"/v1/stream/rollback", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: status %d", resp.StatusCode)
	}
	rb := decodeBody[map[string]any](t, resp)
	if live, _ := rb["targets_live"].(float64); live != 1 {
		t.Fatalf("rollback left %v live targets, want 1 (%v)", rb["targets_live"], rb)
	}
	if !bytes.Equal(exportBytes(t, ts.URL), preDrift) {
		t.Fatal("rollback did not restore the pre-drift bundle byte-identically")
	}
	st = driftStats(t, ts.URL)
	if st.SimilarityValid || st.FoldsOnTarget != 0 {
		t.Fatalf("rollback left trajectory state: %+v", st)
	}
	if st.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1", st.Rollbacks)
	}
	if st.TargetsSpawned != 1 {
		t.Fatalf("rollback clobbered cumulative spawn history: %+v", st)
	}
}

// TestStreamStatsKeepsDriftFieldsUnderNonePolicy pins that the default
// policy surfaces the drift fields without ever opening targets.
func TestStreamStatsKeepsDriftFieldsUnderNonePolicy(t *testing.T) {
	_, ts, _, windows := testServerOpts(t, Options{Workers: 2, MaxBatch: 64, StreamBatch: 4})
	resp := postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[:12]})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitStreamDrained(t, ts.URL, 12)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := driftStats(t, ts.URL)
		if st.TargetsSpawned != 0 {
			t.Fatalf("none policy spawned a target: %+v", st)
		}
		if st.DriftPolicy == "none" && st.SimilarityValid && st.TargetsLive == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("drift fields never settled under none policy: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
