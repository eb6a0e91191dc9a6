package serve

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"go-arxiv/smore/internal/stream"
)

// waitFolded polls the default instance's in-process stream stats (not the
// HTTP stats route, which would move the request counters) until the queue
// is drained and want windows have been folded.
func waitFolded(t *testing.T, srv *Server, want int64) stream.Stats {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := srv.StreamStats()
		if st.Drained() && st.WindowsFolded == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream never folded %d windows: %+v", want, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// secondsValue is the format every cumulative latency series renders in.
var secondsValue = regexp.MustCompile(`^\d+\.\d{9}$`)

// TestMetricsExposition pins the whole /metrics exposition against
// testdata/metrics_exposition.txt: every HELP and TYPE line, metric name,
// label set, line order, and value. Two models serve, the default one
// adapted through a drift spawn and a rollback, so every series appears.
// Latency values vary run to run and are compared by format only
// ({{seconds}} in the golden); the default model's pseudo-label count and
// similarity EMA come from its in-process stream stats.
func TestMetricsExposition(t *testing.T) {
	srv, ts, _, windows := testServerOpts(t, Options{
		Workers: 2, MaxBatch: 64, StreamBatch: 8,
		DriftPolicy: stream.DriftPolicy{Spawn: true}, MaxTargets: 4,
	})
	mustStatus := func(resp *http.Response, want int) {
		t.Helper()
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("status %d, want %d", resp.StatusCode, want)
		}
	}
	// Three 8-window folds build t0, a shifted batch spawns t1, the rollback
	// restores t0, and one more fold re-seeds the similarity EMA.
	mustStatus(postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[:24]}), http.StatusAccepted)
	waitFolded(t, srv, 24)
	mustStatus(postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: shiftedWindows(t)[:8]}), http.StatusAccepted)
	waitFolded(t, srv, 32)
	mustStatus(postJSON(t, ts.URL+"/v1/stream/rollback", struct{}{}), http.StatusOK)
	mustStatus(postJSON(t, ts.URL+"/v1/stream/adapt", predictRequest{Windows: windows[:8]}), http.StatusAccepted)
	st := waitFolded(t, srv, 40)

	alt, altWindows := altArtifacts(t, 11)
	mustStatus(uploadBundle(t, ts.URL, "alt", bundleBytes(t, alt)), http.StatusCreated)
	mustStatus(postJSON(t, ts.URL+"/v1/models/alt/predict", predictRequest{Windows: altWindows[:2]}), http.StatusOK)

	status, body := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics_exposition.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.NewReplacer(
		"{{pseudo_labels}}", fmt.Sprint(st.Adapt.PseudoLabels),
		"{{ema}}", fmt.Sprintf("%.6f", st.SimilarityEMA),
	).Replace(string(golden)), "\n")
	got := strings.Split(string(body), "\n")
	for i := 0; i < max(len(want), len(got)); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if prefix, ok := strings.CutSuffix(w, " {{seconds}}"); ok {
			if gp, value, _ := strings.Cut(g, "} "); gp+"}" != prefix || !secondsValue.MatchString(value) {
				t.Fatalf("line %d = %q, want %s <seconds>", i+1, g, prefix)
			}
			continue
		}
		if g != w {
			t.Fatalf("line %d = %q, want %q", i+1, g, w)
		}
	}
}
