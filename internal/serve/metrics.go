package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// metrics holds the server's request, per-stage latency, and registry
// counters. All counters are atomics so the hot handlers never contend on a
// lock, and the /metrics rendering is a consistent-enough snapshot for
// monitoring.
type metrics struct {
	endpoints map[string]*endpointMetrics
	stages    map[string]*stageMetrics

	// Registry lifecycle counters.
	uploads   atomic.Int64
	swaps     atomic.Int64
	evictions atomic.Int64
	deletes   atomic.Int64

	// overloadRejects counts requests turned away 429 by the in-flight
	// admission cap (Options.MaxInFlight).
	overloadRejects atomic.Int64
}

// endpointMetrics counts one HTTP endpoint's requests, errors, total
// wall-clock latency, and response writes that failed mid-flight (client
// gone before the body — including the error envelope itself — landed).
type endpointMetrics struct {
	requests    atomic.Int64
	errors      atomic.Int64
	nanos       atomic.Int64
	writeErrors atomic.Int64
}

// stageMetrics counts one processing stage's operations and cumulative
// latency, independent of which endpoint invoked it.
type stageMetrics struct {
	ops   atomic.Int64
	nanos atomic.Int64
}

func newMetrics() *metrics {
	m := &metrics{
		endpoints: map[string]*endpointMetrics{},
		stages:    map[string]*stageMetrics{},
	}
	for _, e := range []string{"predict", "adapt", "stream_adapt", "stream_stats", "stream_rollback",
		"checkpoint", "model", "models", "model_upload", "model_delete", "healthz", "metrics"} {
		m.endpoints[e] = &endpointMetrics{}
	}
	for _, s := range []string{"decode", "encode", "infer", "adapt", "export", "stream_encode", "fold", "rollback", "checkpoint"} {
		m.stages[s] = &stageMetrics{}
	}
	return m
}

// observeRequest records one finished request on an endpoint.
func (m *metrics) observeRequest(endpoint string, start time.Time, failed bool) {
	em := m.endpoints[endpoint]
	em.requests.Add(1)
	em.nanos.Add(int64(time.Since(start)))
	if failed {
		em.errors.Add(1)
	}
}

// observeWriteError records a response-body write that failed after the
// handler committed to a status — there is nothing left to send the client,
// so the failure is only counted.
func (m *metrics) observeWriteError(endpoint string) {
	m.endpoints[endpoint].writeErrors.Add(1)
}

// stage times one processing stage: call the returned func when the stage
// completes.
func (m *metrics) stage(name string) func() {
	start := time.Now()
	sm := m.stages[name]
	return func() {
		sm.ops.Add(1)
		sm.nanos.Add(int64(time.Since(start)))
	}
}

// metricDesc describes one metric family of the /metrics exposition: its
// name, HELP text and TYPE, and how to format one series' value from the
// family's source T (an endpoint's or a stage's counters, the registry
// totals, or one model's info). label, when set, is an extra label pair
// appended to each series' labels that splits a family: consecutive
// descriptors sharing a name render under one header, their series
// interleaved per source.
type metricDesc[T any] struct {
	name, help, typ, label string
	value                  func(T) string
}

// series is one source of a family's values and the label pairs that
// identify it ("" for an unlabelled family).
type series[T any] struct {
	labels string
	src    T
}

// registryTotals is the source of the unlabelled registry families.
type registryTotals struct {
	*metrics
	models int
}

var endpointFamilies = []metricDesc[*endpointMetrics]{
	{"smore_requests_total", "Requests received per endpoint.", "counter", "",
		func(e *endpointMetrics) string { return count(e.requests.Load()) }},
	{"smore_request_errors_total", "Requests that returned a non-2xx status.", "counter", "",
		func(e *endpointMetrics) string { return count(e.errors.Load()) }},
	{"smore_response_write_errors_total", "Response writes that failed after the status was committed.", "counter", "",
		func(e *endpointMetrics) string { return count(e.writeErrors.Load()) }},
	{"smore_request_latency_seconds_total", "Cumulative request wall-clock time per endpoint.", "counter", "",
		func(e *endpointMetrics) string { return seconds(e.nanos.Load()) }},
}

var stageFamilies = []metricDesc[*stageMetrics]{
	{"smore_stage_ops_total", "Completed operations per pipeline stage.", "counter", "",
		func(s *stageMetrics) string { return count(s.ops.Load()) }},
	{"smore_stage_latency_seconds_total", "Cumulative time spent per pipeline stage.", "counter", "",
		func(s *stageMetrics) string { return seconds(s.nanos.Load()) }},
}

var registryFamilies = []metricDesc[registryTotals]{
	{"smore_models", "Models currently registered.", "gauge", "",
		func(r registryTotals) string { return count(r.models) }},
	{"smore_model_uploads_total", "Bundles installed through the registry (creates plus swaps).", "counter", "",
		func(r registryTotals) string { return count(r.uploads.Load()) }},
	{"smore_model_swaps_total", "Uploads that hot-swapped an existing model.", "counter", "",
		func(r registryTotals) string { return count(r.swaps.Load()) }},
	{"smore_model_evictions_total", "Models displaced by LRU eviction.", "counter", "",
		func(r registryTotals) string { return count(r.evictions.Load()) }},
	{"smore_model_deletes_total", "Models removed by DELETE.", "counter", "",
		func(r registryTotals) string { return count(r.deletes.Load()) }},
	{"smore_overload_rejects_total", "Requests rejected 429 by the in-flight admission cap.", "counter", "",
		func(r registryTotals) string { return count(r.overloadRejects.Load()) }},
}

var modelFamilies = []metricDesc[*modelInfo]{
	{"smore_model_adapted", "Whether the served ensemble has an adapted target model.", "gauge", "",
		func(mi *modelInfo) string { return count(b2i(mi.Adapted)) }},
	{"smore_model_dim", "Hypervector dimension of the served model.", "gauge", "",
		func(mi *modelInfo) string { return count(mi.Dim) }},
	{"smore_model_classes", "Class count of the served model.", "gauge", "",
		func(mi *modelInfo) string { return count(mi.Classes) }},
	{"smore_stream_queue_depth", "Windows waiting in the streaming adaptation queue.", "gauge", "",
		func(mi *modelInfo) string { return count(mi.Stream.QueueDepth) }},
	{"smore_stream_queue_capacity", "Configured streaming queue capacity.", "gauge", "",
		func(mi *modelInfo) string { return count(mi.Stream.Capacity) }},
	{"smore_stream_in_flight", "Windows taken by the adapter but not yet folded.", "gauge", "",
		func(mi *modelInfo) string { return count(mi.Stream.InFlight) }},
	{"smore_stream_windows_enqueued_total", "Windows accepted onto the streaming queue.", "counter", "",
		func(mi *modelInfo) string { return count(mi.Stream.Enqueued) }},
	{"smore_stream_windows_dropped_total", "Windows rejected with queue-full backpressure.", "counter", "",
		func(mi *modelInfo) string { return count(mi.Stream.Dropped) }},
	{"smore_stream_batches_folded_total", "Micro-batches folded into the model.", "counter", "",
		func(mi *modelInfo) string { return count(mi.Stream.BatchesFolded) }},
	{"smore_stream_windows_folded_total", "Windows folded into the model.", "counter", "",
		func(mi *modelInfo) string { return count(mi.Stream.WindowsFolded) }},
	{"smore_stream_errors_total", "Streaming batches dropped by a failed stage.", "counter", `stage="encode"`,
		func(mi *modelInfo) string { return count(mi.Stream.EncodeErrors) }},
	{"smore_stream_errors_total", "Streaming batches dropped by a failed stage.", "counter", `stage="fold"`,
		func(mi *modelInfo) string { return count(mi.Stream.FoldErrors) }},
	{"smore_stream_windows_lost_total", "Accepted windows discarded by a failed encode or fold.", "counter", "",
		func(mi *modelInfo) string { return count(mi.Stream.WindowsLost) }},
	{"smore_stream_pseudo_labels_total", "Pseudo-labels applied by streamed folds.", "counter", "",
		func(mi *modelInfo) string { return count(mi.Stream.Adapt.PseudoLabels) }},
	{"smore_model_targets", "Live target domains held by the served ensemble.", "gauge", "",
		func(mi *modelInfo) string { return count(len(mi.Targets)) }},
	{"smore_stream_similarity_ema", "Batch-vs-active-target similarity EMA (0 until the first measurement).", "gauge", "",
		func(mi *modelInfo) string { return fmt.Sprintf("%.6f", mi.Stream.SimilarityEMA) }},
	{"smore_stream_folds_on_target", "Successful folds since the active target last changed.", "gauge", "",
		func(mi *modelInfo) string { return count(mi.Stream.FoldsOnTarget) }},
	{"smore_stream_targets_spawned_total", "Target domains opened by the drift policy.", "counter", "",
		func(mi *modelInfo) string { return count(mi.Stream.TargetsSpawned) }},
	{"smore_stream_targets_retired_total", "Target domains retired past the MaxTargets bound.", "counter", "",
		func(mi *modelInfo) string { return count(mi.Stream.TargetsRetired) }},
	{"smore_stream_rollbacks_total", "Checkpoint restores served on the rollback route.", "counter", "",
		func(mi *modelInfo) string { return count(mi.Rollback) }},
	{"smore_checkpoint_generation", "Latest durable checkpoint generation persisted for the model (0 before the first).", "gauge", "",
		func(mi *modelInfo) string { return count(mi.CheckpointGen) }},
	{"smore_checkpoints_total", "Durable checkpoints persisted for the model.", "counter", "",
		func(mi *modelInfo) string { return count(mi.Checkpoints) }},
	{"smore_checkpoint_failures_total", "Durable checkpoint attempts that failed to persist.", "counter", "",
		func(mi *modelInfo) string { return count(mi.CheckpointFailures) }},
	{"smore_breaker_state", "Stream-fold circuit state: 0 closed, 1 half-open, 2 open.", "gauge", "",
		func(mi *modelInfo) string { return count(breakerStateValue(mi.Breaker)) }},
	{"smore_breaker_opens_total", "Stream-fold circuit transitions to open.", "counter", "",
		func(mi *modelInfo) string { return count(mi.BreakerOpens) }},
}

// render writes the counters in Prometheus text exposition format: the
// endpoint, stage and registry families, then one labelled series per
// registered model (infos arrives name-sorted), so the output is stable.
func (m *metrics) render(w io.Writer, infos []modelInfo) {
	models := make([]series[*modelInfo], len(infos))
	for i := range infos {
		models[i] = series[*modelInfo]{fmt.Sprintf("model=%q", infos[i].Name), &infos[i]}
	}
	writeFamilies(w, endpointFamilies, keyed("endpoint", m.endpoints))
	writeFamilies(w, stageFamilies, keyed("stage", m.stages))
	writeFamilies(w, registryFamilies, []series[registryTotals]{{"", registryTotals{m, len(infos)}}})
	writeFamilies(w, modelFamilies, models)
}

// writeFamilies renders each family's HELP and TYPE lines followed by one
// sample line per series (per series and label when the family is split).
func writeFamilies[T any](w io.Writer, descs []metricDesc[T], ss []series[T]) {
	for i := 0; i < len(descs); {
		d := descs[i]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", d.name, d.help, d.name, d.typ)
		j := i
		for j < len(descs) && descs[j].name == d.name {
			j++
		}
		for _, s := range ss {
			for _, part := range descs[i:j] {
				labels := s.labels
				if part.label != "" {
					labels += "," + part.label
				}
				if labels != "" {
					labels = "{" + labels + "}"
				}
				fmt.Fprintf(w, "%s%s %s\n", d.name, labels, part.value(s.src))
			}
		}
		i = j
	}
}

// keyed labels each entry of a counter map with label="key", in key order.
func keyed[V any](label string, m map[string]V) []series[V] {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]series[V], len(keys))
	for i, k := range keys {
		out[i] = series[V]{fmt.Sprintf("%s=%q", label, k), m[k]}
	}
	return out
}

func count[N ~int | ~int64](n N) string { return strconv.FormatInt(int64(n), 10) }

func seconds(nanos int64) string { return fmt.Sprintf("%.9f", float64(nanos)/1e9) }

// breakerStateValue maps a breaker state name to its gauge value.
func breakerStateValue(state string) int {
	switch state {
	case "open":
		return 2
	case "half_open":
		return 1
	default:
		return 0
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
