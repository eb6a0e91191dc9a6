package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
	"go-arxiv/smore/internal/serve"
)

// span is one timed interval of a traced request. Spans of one request
// share Trace; Parent is 0 for a root.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"span"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	t0     time.Time
	spans  []span
	nextID int64
	traces int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens a new trace with its root span and returns both ids.
func (t *tracer) root(name string, start, end time.Time) (trace, id int64) {
	t.traces++
	return t.traces, t.child(t.traces, 0, name, start, end)
}

// child records a span under parent in trace.
func (t *tracer) child(trace, parent int64, name string, start, end time.Time) int64 {
	t.nextID++
	t.spans = append(t.spans, span{trace, t.nextID, parent, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return t.nextID
}

// clientSpans turns a phase's request records into client spans:
// client.request (release to response end) over client.wait (queued behind
// busy connections) and client.roundtrip (on the wire and in the server).
func (t *tracer) clientSpans(start time.Time, recs []record) {
	for i := range recs {
		r := &recs[i]
		at := func(d time.Duration) time.Time { return start.Add(d) }
		tr, root := t.root("client.request", at(r.released), at(r.done))
		t.child(tr, root, "client.wait", at(r.released), at(r.sent))
		t.child(tr, root, "client.roundtrip", at(r.sent), at(r.done))
	}
}

func (t *tracer) writeFile(path string) error {
	raw, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// replayStats are per-request means (microseconds) of the in-process
// replay, plus the replay server's own stage counters.
type replayStats struct {
	n                                             int
	handler, decode, encode, infer, respond, self float64
	server                                        serverDelta
}

// replayPredict replays predict bodies one at a time through an in-process
// server built on b (serve.New(...).Handler(), no sockets). Each request
// gets a root span with sibling children: the whole serve.ServeHTTP call,
// then the same bytes through json.Decode, encode.EncodeBatch,
// model.Snapshot.PredictBatch and json.Encode called directly. The handler's
// self time is ServeHTTP minus those four.
func replayPredict(t *tracer, b *pipeline.Bundle, bodies [][]byte, n int) (replayStats, error) {
	srv, err := serve.New(b, serve.Options{})
	if err != nil {
		return replayStats{}, err
	}
	defer srv.Close(context.Background())
	h := srv.Handler()
	enc, err := encode.New(b.Encoder)
	if err != nil {
		return replayStats{}, err
	}
	snap := b.Model.Snapshot()
	serveOne := func(body []byte) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replayed predict: status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}
	for i := range min(10, len(bodies)) {
		if err := serveOne(bodies[i]); err != nil {
			return replayStats{}, err
		}
	}
	before, err := scrapeHandler(h)
	if err != nil {
		return replayStats{}, err
	}
	var sum [5]time.Duration
	for i := range n {
		body := bodies[i%len(bodies)]
		t0 := time.Now()
		if err := serveOne(body); err != nil {
			return replayStats{}, err
		}
		t1 := time.Now()
		var req windowsBody
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return replayStats{}, err
		}
		t2 := time.Now()
		hvs, err := enc.EncodeBatch(req.Windows, 0)
		if err != nil {
			return replayStats{}, err
		}
		t3 := time.Now()
		preds := snap.PredictBatch(hvs, 0)
		t4 := time.Now()
		if err := json.NewEncoder(io.Discard).Encode(predictResponse{Predictions: preds, Adapted: snap.Adapted()}); err != nil {
			return replayStats{}, err
		}
		t5 := time.Now()
		tr, root := t.root("replay.request", t0, t5)
		for j, c := range []struct {
			name     string
			from, to time.Time
		}{
			{"serve.ServeHTTP", t0, t1},
			{"json.Decode", t1, t2},
			{"encode.EncodeBatch", t2, t3},
			{"model.Snapshot.PredictBatch", t3, t4},
			{"json.Encode", t4, t5},
		} {
			t.child(tr, root, c.name, c.from, c.to)
			sum[j] += c.to.Sub(c.from)
		}
	}
	after, err := scrapeHandler(h)
	if err != nil {
		return replayStats{}, err
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
	st := replayStats{
		n: n, handler: us(sum[0]), decode: us(sum[1]), encode: us(sum[2]), infer: us(sum[3]), respond: us(sum[4]),
		server: deltaOf(before, after, "predict"),
	}
	st.self = st.handler - st.decode - st.encode - st.infer - st.respond
	return st, nil
}

// scrapeHandler reads /metrics from an in-process handler.
func scrapeHandler(h http.Handler) (promSample, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseProm(rec.Body)
}

// probeInput is what the function probes time.
type probeInput struct {
	enc           *encode.Encoder
	mcfg          model.Config
	windows       [][][]float64 // encode probes
	targets       []hdc.Vector  // adaptation and scoring probes
	train         []model.Sample
	sourceBundle  []byte // trained, not adapted
	adaptedBundle []byte
}

// perOp times f over rounds of n calls and returns the median per-call
// time, so one slow round (a GC, a noisy neighbour) cannot move it.
func perOp(rounds, n int, f func(i int)) time.Duration {
	times := make([]float64, rounds)
	for r := range rounds {
		start := time.Now()
		for i := range n {
			f(r*n + i)
		}
		times[r] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(times))
}

// runProbes times the public functions each layer is built from, on the
// run's own inputs, and stores them in layer.
func runProbes(in probeInput, layer map[string]float64) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ns := func(d time.Duration) float64 { return float64(d) }
	ws := in.windows
	sc := in.enc.NewScratch()
	dst := hdc.New(in.mcfg.Dim)
	var probeErr error
	layer["encode.window_us"] = us(perOp(7, 100, func(i int) {
		if err := in.enc.EncodeInto(sc, ws[i%len(ws)], &dst); err != nil {
			probeErr = err
		}
	}))
	batch := ws[:min(64, len(ws))]
	layer["encode.batch_us"] = us(perOp(7, 5, func(int) {
		if _, err := in.enc.EncodeBatch(batch, 2); err != nil {
			probeErr = err
		}
	}))
	if probeErr != nil {
		return probeErr
	}

	hvs := in.targets
	acc := hdc.NewAccumulator(in.mcfg.Dim)
	layer["hdc.acc_add_ns"] = ns(perOp(7, 2000, func(i int) { acc.Add(hvs[i%len(hvs)], 1) }))
	rows := hvs[:min(4, len(hvs))] // one timestep's sensor rows
	layer["hdc.bundle_rows_ns"] = ns(perOp(7, 2000, func(int) { hdc.BundleRowsInto(&dst, rows...) }))
	mat := hdc.NewMatrix(in.mcfg.Classes, in.mcfg.Dim)
	for r := range in.mcfg.Classes {
		mat.SetRow(r, hvs[r%len(hvs)])
	}
	cos := make([]float64, in.mcfg.Classes)
	layer["hdc.cosine_ns"] = ns(perOp(7, 2000, func(i int) { mat.CosineInto(hvs[i%len(hvs)], cos) }))

	adapted, err := pipeline.ReadBundle(bytes.NewReader(in.adaptedBundle))
	if err != nil {
		return err
	}
	snap := adapted.Model.Snapshot()
	scores := make([]float64, in.mcfg.Classes)
	layer["model.score_ns"] = ns(perOp(7, 2000, func(i int) {
		if err := snap.ScoreInto(hvs[i%len(hvs)], scores); err != nil {
			probeErr = err
		}
	}))
	pbatch := hvs[:min(64, len(hvs))]
	layer["model.predict_batch_us"] = us(perOp(7, 20, func(int) { snap.PredictBatch(pbatch, 2) }))
	layer["pipeline.read_bundle_ms"] = us(perOp(5, 10, func(int) {
		if _, err := pipeline.ReadBundle(bytes.NewReader(in.adaptedBundle)); err != nil {
			probeErr = err
		}
	})) / 1000
	if probeErr != nil {
		return probeErr
	}

	src, err := pipeline.ReadBundle(bytes.NewReader(in.sourceBundle))
	if err != nil {
		return err
	}
	const fold = 16 // the stream workload's request size, folded one request at a time
	if _, err := src.Model.AdaptIncremental(hvs[:fold], 2); err != nil {
		return err
	}
	folds := max(1, len(hvs)/fold-1)
	layer["model.fold_us"] = us(perOp(5, 6, func(i int) {
		k := 1 + i%folds
		if _, err := src.Model.AdaptIncremental(hvs[k*fold:(k+1)*fold], 2); err != nil {
			probeErr = err
		}
	}))
	if probeErr != nil {
		return probeErr
	}

	// AdaptBatch over at most 2,000 targets keeps the probe near a second
	// on the 10,000-window offline split.
	adaptOn := hvs[:min(2000, len(hvs))]
	var trainT, adaptT []float64
	for range 3 {
		m, err := model.New(in.mcfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := m.Train(in.train); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := m.AdaptBatch(adaptOn, 0); err != nil {
			return err
		}
		trainT = append(trainT, secs(t1.Sub(t0)))
		adaptT = append(adaptT, secs(time.Since(t1)))
	}
	layer["model.train_s"] = median(trainT)
	layer["model.adapt_batch_s"] = median(adaptT)
	return nil
}

// bundleBytes serializes a bundle.
func bundleBytes(b *pipeline.Bundle) ([]byte, error) {
	var buf bytes.Buffer
	_, err := b.WriteTo(&buf)
	return buf.Bytes(), err
}

// replayLayer stores the replay's per-request means.
func replayLayer(st replayStats, layer map[string]float64) {
	layer["replay.handler_us"] = st.handler
	layer["replay.decode_us"] = st.decode
	layer["replay.encode_us"] = st.encode
	layer["replay.infer_us"] = st.infer
	layer["replay.respond_us"] = st.respond
	layer["replay.self_us"] = st.self
}

// serverLayer stores a server's windows-route counters over a phase.
func serverLayer(d serverDelta, layer map[string]float64) {
	layer["serve.endpoint_us"] = d.endpointUS()
	layer["serve.decode_us"] = d.stageUS("decode")
	layer["serve.encode_us"] = d.stageUS("encode")
	layer["serve.infer_us"] = d.stageUS("infer")
	layer["serve.other_us"] = d.otherUS()
	layer["serve.errors"] = d.errors
	layer["serve.write_errors"] = d.writeErrors
	layer["serve.overload_rejects"] = d.rejects
}

// printAttribution prints where a predict request's time went: the live
// client and server means of the base phase beside the in-process replay.
// predict holds the live predict route alone.
func printAttribution(clientWait, roundtrip float64, predict serverDelta, rp replayStats) {
	ep := predict.endpointUS()
	fmt.Printf("attribution per predict request, base phase means (µs):\n")
	fmt.Printf("  %-14s %10s %10s\n", "stage", "live", "replay")
	fmt.Printf("  %-14s %10.1f %10s\n", "client.wait", clientWait, "-")
	fmt.Printf("  %-14s %10.1f %10s\n", "net", roundtrip-ep, "-")
	fmt.Printf("  %-14s %10.1f %10.1f\n", "serve.other", predict.otherUS(), rp.self+rp.respond)
	fmt.Printf("  %-14s %10.1f %10.1f\n", "decode", predict.stageUS("decode"), rp.decode)
	fmt.Printf("  %-14s %10.1f %10.1f\n", "encode", predict.stageUS("encode"), rp.encode)
	fmt.Printf("  %-14s %10.1f %10.1f\n", "infer", predict.stageUS("infer"), rp.infer)
	fmt.Printf("  %-14s %10.1f %10.1f\n", "endpoint", ep, rp.handler)
	fmt.Printf("  %-14s %10.1f %10s\n", "client total", clientWait+roundtrip, "-")
	fmt.Printf("  replay (decode+encode+infer+respond+self) / live endpoint = %.3f over %d replayed requests\n",
		rp.handler/ep, rp.n)
	if predict.stageOps["decode"] > predict.requests {
		fmt.Printf("  note: live decode also times the other route's requests, so live serve.other is not predict's alone\n")
	}
}
