package main

import (
	"encoding/json"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestWorkloadsMatchBenchmarkJSON runs every workload with its phases
// shrunk to about a second and checks that each emits exactly the metric
// names and units BENCHMARK.json declares, with every correctness check
// passing, so the benchmark and BENCHMARK.json cannot drift apart. The
// traced variants run for the two workloads whose per-layer metrics come
// from different sources (a live server, and an in-process one).
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("starts smore-serve processes and trains models")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		benchSpec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var specNames, names []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if !slices.Equal(specNames, names) {
		t.Fatalf("BENCHMARK.json workloads %v, bench runs %v", specNames, names)
	}
	units := func(ms []specMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	want := map[bool]map[string]string{false: units(spec.EndToEnd), true: units(spec.PerLayer)}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.name != "predict-batch" && w.name != "train-offline" {
				continue
			}
			e := &env{
				root: root, tmp: t.TempDir(), seed: 1, seconds: 1, warmup: 200 * time.Millisecond,
				trace: traced, rng: rand.New(rand.NewPCG(1, 2)),
			}
			if traced {
				e.spans = newTracer()
			}
			start := time.Now()
			m, err := w.run(e)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			res, err := finish(m, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			t.Logf("%s (traced %v): %d attempted in %v", w.name, traced, res.Attempted, time.Since(start).Round(time.Millisecond))
			if !res.Correct {
				t.Errorf("%s (traced %v): incorrect run: %d failed, problems %v", w.name, traced, res.Failed, m.problems)
			}
			got := map[string]string{}
			for n, v := range res.Metrics {
				got[n] = v.Unit
			}
			if !maps.Equal(got, want[traced]) {
				t.Errorf("%s (traced %v) emits %v, BENCHMARK.json declares %v", w.name, traced, got, want[traced])
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	around := func(c, jitter float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = c + jitter*float64(i%5-2)/2
		}
		return out
	}
	parent := around(100, 1)
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"unchanged", around(100.5, 1), "same"},
		{"slower past the bound", around(115, 1), "worse"},
		{"faster beyond the parent spread", around(80, 1), "better"},
		{"too noisy to call", around(100, 40), "unresolved"},
	} {
		if got := verdict(parent, tc.change, true, 0.1, true); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if got := verdict(parent, around(115, 1), true, 0.1, false); got != "-" {
		t.Errorf("ungated metric judged %q", got)
	}
}
