package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json -compare judges against.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords loads the runs an -out file accumulated.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) (the exclusive method) and
// statistics.median give them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	med = median(slices.Clone(s))
	if len(s) < 2 {
		return med, med, med
	}
	n, m := 4, len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return q(1), med, q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// verdict judges a metric's change runs b against parent runs a.
//
// The change is worse when its median is worse than the parent's by more
// than bound; better when it improves by more than the parent's own
// spread and wins at least nine in ten pairs; unresolved when either
// side's spread exceeds the bound, unless every change run beats every
// parent run. Metrics without a bound are reported, not judged.
func verdict(a, b []float64, lowerBetter bool, bound float64, gated bool) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	if !gated {
		return "-"
	}
	worse := (mb - ma) / math.Abs(ma)
	if !lowerBetter {
		worse = -worse
	}
	allBetter := better(slices.Max(b), slices.Min(a)) // the change's worst run beats the parent's best
	if !lowerBetter {
		allBetter = better(slices.Min(b), slices.Max(a))
	}
	if max(spread(a), spread(b)) > bound {
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	if worse > bound {
		return "worse"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := range pairs {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if -worse > spread(a) && pairs > 0 && float64(wins) >= 0.9*float64(pairs) {
		return "better"
	}
	return "same"
}

// compareFiles prints, per workload and metric, each side's median and
// quartiles, the relative delta and a verdict against BENCHMARK.json. It
// returns 1 when any end-to-end metric regressed.
func compareFiles(specPath, parentPath, changePath string, w io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	change, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bounds := map[string]specMetric{} // only end-to-end metrics are gated
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-5s %-24s %-34s %-34s %8s  %s\n", "workload", "trace", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "delta", "verdict")
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			a := series(parent, wl.name, traced)
			b := series(change, wl.name, traced)
			names := make([]string, 0, len(a))
			for n := range a {
				if _, ok := b[n]; ok {
					names = append(names, n)
				}
			}
			slices.Sort(names)
			for _, n := range names {
				sm, gated := bounds[n]
				v := verdict(a[n], b[n], sm.Better != "higher", sm.Bound, gated && !traced)
				if v == "worse" {
					code = 1
				}
				q1a, ma, q3a := quartiles(a[n])
				q1b, mb, q3b := quartiles(b[n])
				fmt.Fprintf(w, "%-14s %-5v %-24s %10.4g [%9.4g, %9.4g] %10.4g [%9.4g, %9.4g] %+7.2f%%  %s\n",
					wl.name, traced, n, ma, q1a, q3a, mb, q1b, q3b, 100*(mb-ma)/math.Abs(ma), v)
			}
		}
	}
	return code
}

// series gathers every metric and detail value of one workload's runs.
func series(recs []runRecord, workload string, traced bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range recs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		for n, m := range r.Metrics {
			out[n] = append(out[n], m.Value)
		}
		for n, m := range r.Detail {
			out["detail."+n] = append(out["detail."+n], m.Value)
		}
	}
	return out
}
