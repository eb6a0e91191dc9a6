// Command bench is the SMORE service benchmark: open-loop HTTP load against
// a real smore-serve child process, plus a closed-loop offline
// train-and-adapt workload, with per-layer attribution in traced runs.
//
//	bash bench/run.sh --workload predict-small --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// Every run prints a human summary, then as its last stdout line one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end metrics
// of BENCHMARK.json untraced, its per-layer metrics with --trace 1. With
// -out FILE the run also appends its full record (metrics plus the
// workload-specific details) to FILE as one JSON line, which -compare reads.
// See bench/README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and fixes its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_us_per_window", "us"},
	{"rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports, per workload.
var perLayer = []metricDef{
	{"client.p95_ms", "ms"},
	{"serve.endpoint_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.infer_us", "us"},
	{"serve.other_us", "us"},
	{"serve.errors", "count"},
	{"serve.write_errors", "count"},
	{"serve.overload_rejects", "count"},
	{"net.overhead_us", "us"},
	{"replay.handler_us", "us"},
	{"replay.decode_us", "us"},
	{"replay.encode_us", "us"},
	{"replay.infer_us", "us"},
	{"replay.respond_us", "us"},
	{"replay.self_us", "us"},
	{"encode.window_us", "us"},
	{"encode.batch_us", "us"},
	{"hdc.acc_add_ns", "ns"},
	{"hdc.bundle_rows_ns", "ns"},
	{"hdc.cosine_ns", "ns"},
	{"model.score_ns", "ns"},
	{"model.predict_batch_us", "us"},
	{"model.fold_us", "us"},
	{"model.train_s", "s"},
	{"model.adapt_batch_s", "s"},
	{"pipeline.read_bundle_ms", "ms"},
	{"bench.samples", "count"},
	{"bench.client_cpu_s", "s"},
}

// measurement is what a workload run produced.
type measurement struct {
	attempted, failed int
	problems          []string // correctness checks that failed
	e2e, layer        map[string]float64
	detail            map[string]metric // workload-specific numbers, never gated
}

func newMeasurement() *measurement {
	return &measurement{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]metric{}}
}

// note records a workload-specific detail number.
func (m *measurement) note(name, unit string, v float64) { m.detail[name] = metric{v, unit} }

// p95 records the run's 95th-percentile latency as a detail and as the
// client layer's metric. It is not gated: beside the stream it spread too
// widely between runs of the same code (bench/README.md).
func (m *measurement) p95(v float64) {
	m.note("p95_ms", "ms", v)
	m.layer["client.p95_ms"] = v
}

// check records a failed correctness condition unless ok.
func (m *measurement) check(ok bool, format string, args ...any) {
	if !ok {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// result is the last stdout line of a run, the one tools parse.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run as -out appends it and -compare reads it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	result
	Detail   map[string]metric `json:"detail"`
	Problems []string          `json:"problems,omitempty"`
}

// env is what a workload run needs from the command line and the checkout.
type env struct {
	root    string // checkout root (holds go.mod and bench/)
	tmp     string // per-run scratch directory, removed at exit
	seed    uint64
	seconds float64
	warmup  time.Duration // untimed load before every measured phase
	trace   bool
	rng     *rand.Rand // input selection, derived from seed only
	spans   *tracer    // non-nil in traced runs
}

// pick returns a seeded index in [0, n).
func (e *env) pick(n int) int { return e.rng.IntN(n) }

type workload struct {
	name string
	run  func(*env) (*measurement, error)
}

var workloads = []workload{
	{"predict-small", runPredictSmall},
	{"predict-batch", runPredictBatch},
	{"stream-mixed", runStreamMixed},
	{"train-offline", runTrainOffline},
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same request bodies and datasets")
		seconds = flag.Int("seconds", 25, "measured seconds per run, split over the workload's phases")
		trace   = flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics, spans (.bench_build/trace-WORKLOAD-SEED.json) and the attribution table")
		out     = flag.String("out", "", "append this run's full record as one JSON line to this file")
		compare = flag.Bool("compare", false, "compare two -out files: -compare PARENT.jsonl CHANGE.jsonl")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files: PARENT.jsonl CHANGE.jsonl")
			return 2
		}
		return compareFiles(filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := &env{
		root: root, tmp: tmp, seed: *seed, seconds: float64(*seconds), warmup: 3 * time.Second, trace: *trace == 1,
		rng: rand.New(rand.NewPCG(*seed, *seed^0xbe7c4)),
	}
	if e.trace {
		e.spans = newTracer()
	}
	m, err := workloads[i].run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	res, err := finish(m, e.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if e.trace {
		path := filepath.Join(build, fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		if err := e.spans.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(e.spans.spans), path)
		// The traced run times the same path as an untraced one; keep its
		// end-to-end numbers so the tracing overhead can be read off.
		for _, d := range endToEnd {
			m.note("traced."+d.name, d.unit, m.e2e[d.name])
		}
		if *out != "" {
			printTracingOverhead(*out, *name, m.e2e)
		}
	}
	rec := runRecord{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: e.trace, result: res, Detail: m.detail, Problems: m.problems}
	printSummary(rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench: -out:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// finish assembles the result line. Every catalogued metric must
// have been measured; a missing one is a bug in the workload.
func finish(m *measurement, traced bool) (result, error) {
	defs, vals := endToEnd, m.e2e
	if traced {
		defs, vals = perLayer, m.layer
	}
	res := result{
		Correct:   len(m.problems) == 0 && m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	if res.Attempted < 1 {
		return res, errors.New("no operations attempted")
	}
	return res, nil
}

func printSummary(rec runRecord) {
	fmt.Printf("workload %s seed %d: %d attempted, %d failed, correct=%v\n",
		rec.Workload, rec.Seed, rec.Attempted, rec.Failed, rec.Correct)
	for _, p := range rec.Problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	for _, group := range []map[string]metric{rec.Metrics, rec.Detail} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			fmt.Printf("  %-28s %14.4f %s\n", n, group[n].Value, group[n].Unit)
		}
	}
}

// printTracingOverhead prints the traced run's end-to-end medians against
// those of the untraced runs of the same workload already in the -out file.
func printTracingOverhead(path, workload string, traced map[string]float64) {
	recs, err := readRecords(path)
	if err != nil {
		return // no earlier runs to compare against
	}
	untraced := series(recs, workload, false)
	for _, d := range endToEnd {
		vs := untraced[d.name]
		if len(vs) == 0 {
			continue
		}
		med := median(vs)
		fmt.Printf("tracing overhead %-18s traced %.4g vs untraced median %.4g over %d runs (%+.1f%%)\n",
			d.name, traced[d.name], med, len(vs), 100*(traced[d.name]-med)/med)
	}
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// findRoot walks up from the working directory to the checkout root: the
// directory holding both go.mod and bench/go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "go.mod")) && fileExists(filepath.Join(dir, "bench", "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a SMORE checkout (no go.mod beside bench/go.mod)")
		}
		dir = parent
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " | ")
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is sorted in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }
