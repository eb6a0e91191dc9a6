package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"go-arxiv/smore/internal/data"
	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
)

// starts is how many times a run starts the server to measure set-up time;
// the median of that many millisecond-scale starts is steady.
const starts = 11

// phaseSpec is one open-loop predict phase: a rate and its share of the
// run's measured seconds.
type phaseSpec struct {
	name  string
	rate  float64
	share float64
}

func runPredictSmall(e *env) (*measurement, error) {
	fx, err := newFixture(e)
	if err != nil {
		return nil, err
	}
	bs, err := fx.singles()
	if err != nil {
		return nil, err
	}
	if err := bs.expect(fx.adapted, fx.enc); err != nil {
		return nil, err
	}
	return runPredict(e, fx, bs, []phaseSpec{{"base", 400, 0.625}, {"hi", 1500, 0.375}}, true)
}

func runPredictBatch(e *env) (*measurement, error) {
	fx, err := newFixture(e)
	if err != nil {
		return nil, err
	}
	bs, err := fx.batches(e, 48, 64)
	if err != nil {
		return nil, err
	}
	if err := bs.expect(fx.adapted, fx.enc); err != nil {
		return nil, err
	}
	return runPredict(e, fx, bs, []phaseSpec{{"base", 40, 1}}, false)
}

// startRepeatedly starts the server n times and keeps the last one
// running; it returns that child and each start's exec-to-healthy seconds.
func startRepeatedly(n int, bin string, args ...string) (*child, []float64, error) {
	var times []float64
	for i := range n {
		c, d, err := startServer(bin, args...)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, secs(d))
		if i == n-1 {
			return c, times, nil
		}
		if err := c.stop(); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("no server starts requested")
}

// predictLane is an open-loop predict lane over bs for dur at rate.
func predictLane(e *env, bs *bodySet, rate float64, dur time.Duration, conns int) *lane {
	n := max(1, int(rate*dur.Seconds()))
	return &lane{path: "/v1/predict", rate: rate, bodies: bs.bodies, seq: schedule(n, len(bs.bodies), e.pick), conns: conns}
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPredict is the frozen-model predict workload: open-loop phases on the
// adapted bundle over two connections, each response checked against the
// in-process reference.
func runPredict(e *env, fx *fixture, bs *bodySet, phases []phaseSpec, ladder bool) (*measurement, error) {
	ctx := context.Background()
	m := newMeasurement()
	c, setups, err := startRepeatedly(starts, fx.bin, "-load", fx.adaptedPath)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	m.e2e["setup_s"] = median(setups)
	pid := c.cmd.Process.Pid
	admin := newClient()
	classes := fx.cfg.Model.Classes
	batch := len(bs.windows[0])

	_, warm := runLanes(ctx, c.base, predictLane(e, bs, phases[0].rate, e.warmup, 2))
	m.check(summarize(warm[0]).Failed == 0, "warm-up requests failed")

	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	client0 := selfCPU()
	windows := 0
	var base struct {
		recs   []record
		server serverDelta
	}
	for i, p := range phases {
		l := predictLane(e, bs, p.rate, time.Duration(p.share*e.seconds*float64(time.Second)), 2)
		before, err := scrape(admin, c.base)
		if err != nil {
			return nil, err
		}
		start, out := runLanes(ctx, c.base, l)
		recs := out[0]
		st := summarize(recs)
		wrong := checkPredictions(recs, l.seq, bs, classes)
		m.attempted += len(recs)
		m.failed += st.Failed + wrong
		windows += len(recs) * batch
		prefix := ""
		if i > 0 {
			prefix = p.name + "_"
			m.note(prefix+"p50_ms", "ms", st.P50.Value)
		}
		m.note(prefix+"p99_ms", "ms", st.P99.Value)
		m.note(prefix+"samples", "count", float64(st.P99.Samples))
		m.note(prefix+"late_p99_ms", "ms", st.LateP99.Value)
		m.note(prefix+"rate", "1/s", p.rate)
		if i == 0 {
			after, err := scrape(admin, c.base)
			if err != nil {
				return nil, err
			}
			base.recs, base.server = recs, deltaOf(before, after, "predict")
			m.e2e["p50_ms"] = st.P50.Value
			m.p95(st.P95.Value)
		}
		if e.trace {
			e.spans.clientSpans(start, recs)
		}
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	m.layer["bench.client_cpu_s"] = secs(selfCPU() - client0)
	m.e2e["cpu_us_per_window"] = float64(cpu1-cpu0) / float64(time.Microsecond) / float64(windows)
	if m.e2e["rss_mb"], err = procHWM(pid); err != nil {
		return nil, err
	}

	if e.trace {
		if ladder {
			maxRate(ctx, e, m, c.base, bs, classes)
		}
		if err := traceServer(e, m, fx, bs, base.recs, base.server, base.server, fx.adaptedPath); err != nil {
			return nil, err
		}
	}
	if err := c.stop(); err != nil {
		return nil, err
	}
	return m, nil
}

// maxRate walks a 3-second-per-step rate ladder and notes the highest rate
// whose p99 stays within 3 ms with no failures. Saturation throughput
// spreads too widely on a small shared machine to gate on, so the result
// is a detail only.
func maxRate(ctx context.Context, e *env, m *measurement, base string, bs *bodySet, classes int) {
	best := 0.0
	for _, rate := range []float64{2000, 2300, 2600, 2900, 3200, 3500, 3900} {
		l := predictLane(e, bs, rate, 3*time.Second, 2)
		_, out := runLanes(ctx, base, l)
		st := summarize(out[0])
		wrong := checkPredictions(out[0], l.seq, bs, classes)
		m.check(wrong == 0, "%d wrong predictions at %.0f req/s", wrong, rate)
		logf("ladder %.0f req/s: p99 %.3f ms over %d, %d failed", rate, st.P99.Value, st.P99.Samples, st.Failed)
		if st.Failed > 0 || st.P99.Value > 3 {
			break
		}
		best = rate
	}
	m.note("max_rps", "1/s", best)
}

// traceServer fills the per-layer metrics of a server workload: the live
// server's base-phase counters over the windows routes (live) and the
// predict route alone (predict), the client's view of the same phase
// (recs, predict requests), the in-process replay of the same bodies, and
// the function probes.
func traceServer(e *env, m *measurement, fx *fixture, bs *bodySet, recs []record, live, predict serverDelta, bundlePath string) error {
	var wait, trip float64
	ok := 0
	for i := range recs {
		if recs[i].ok() {
			wait += ms(recs[i].sent-recs[i].released) * 1000
			trip += ms(recs[i].done-recs[i].sent) * 1000
			ok++
		}
	}
	wait, trip = wait/float64(ok), trip/float64(ok)
	serverLayer(live, m.layer)
	m.layer["net.overhead_us"] = trip - predict.endpointUS()
	m.layer["bench.samples"] = float64(len(recs))

	b, err := pipeline.LoadBundleFile(bundlePath)
	if err != nil {
		return err
	}
	// About 2,400 replayed windows: a second or two at either batch size.
	rp, err := replayPredict(e.spans, b, bs.bodies, max(48, 2400/len(bs.windows[0])))
	if err != nil {
		return err
	}
	replayLayer(rp, m.layer)
	printAttribution(wait, trip, predict, rp)
	return probeFixture(fx, m.layer)
}

// probeFixture runs the function probes on a server workload's inputs.
func probeFixture(fx *fixture, layer map[string]float64) error {
	src, err := os.ReadFile(fx.sourcePath)
	if err != nil {
		return err
	}
	adapted, err := os.ReadFile(fx.adaptedPath)
	if err != nil {
		return err
	}
	targets, err := fx.enc.EncodeBatch(fx.pool, 0)
	if err != nil {
		return err
	}
	return runProbes(probeInput{
		enc: fx.enc, mcfg: fx.cfg.Model, windows: fx.pool, targets: targets,
		train: fx.trainSamples, sourceBundle: src, adaptedBundle: adapted,
	}, layer)
}

// Stream-mixed rates: predict is predict-small's base rate; stream adapt
// sends 16-window batches, 1,600 windows per second in all.
const (
	mixedPredictRate = 400
	mixedStreamRate  = 100
	mixedStreamBatch = 16
	foldPoll         = 25 * time.Millisecond
)

func runStreamMixed(e *env) (*measurement, error) {
	ctx := context.Background()
	fx, err := newFixture(e)
	if err != nil {
		return nil, err
	}
	singles, err := fx.singles()
	if err != nil {
		return nil, err
	}
	streams, err := fx.batches(e, 128, mixedStreamBatch)
	if err != nil {
		return nil, err
	}
	m := newMeasurement()
	classes := fx.cfg.Model.Classes
	stateDir := filepath.Join(e.tmp, "state")
	// The stream extends the adapted bundle. From the source-only bundle the
	// first 16-window fold sets the target prototypes, and on some seeds
	// (19 and 35 of 1–40) that fold locks the model below the source-only
	// baseline, which would fail the accuracy check below.
	args := []string{"-load", fx.adaptedPath, "-state-dir", stateDir, "-checkpoint-folds", "256"}
	c, _, err := startServer(fx.bin, args...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if c != nil {
			c.kill()
		}
	}()
	pid := c.cmd.Process.Pid
	admin := newClient()

	lanes := func(dur time.Duration) (*lane, *lane) {
		p := predictLane(e, singles, mixedPredictRate, dur, 1)
		n := max(1, int(mixedStreamRate*dur.Seconds()))
		s := &lane{path: "/v1/stream/adapt", rate: mixedStreamRate, bodies: streams.bodies,
			seq: schedule(n, len(streams.bodies), e.pick), conns: 1}
		return p, s
	}
	accepted := 0 // windows the server acknowledged with 202
	countAccepted := func(recs []record) {
		for i := range recs {
			if recs[i].status == http.StatusAccepted {
				accepted += mixedStreamBatch
			}
		}
	}
	wp, ws := lanes(e.warmup)
	_, warm := runLanes(ctx, c.base, wp, ws)
	m.check(summarize(warm[0]).Failed+summarize(warm[1]).Failed == 0, "warm-up requests failed")
	countAccepted(warm[1])

	pl, sl := lanes(time.Duration(e.seconds * float64(time.Second)))
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	client0 := selfCPU()
	before, err := scrape(admin, c.base)
	if err != nil {
		return nil, err
	}
	st0, err := getStreamStats(admin, c.base)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	polled := make(chan []int, 1)
	go func() { polled <- pollBacklog(c.base, stop) }()
	start, out := runLanes(ctx, c.base, pl, sl)
	close(stop)
	backlog := <-polled
	st1, err := getStreamStats(admin, c.base)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	after, err := scrape(admin, c.base)
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	m.layer["bench.client_cpu_s"] = secs(selfCPU() - client0)
	countAccepted(out[1])

	ps, ss := summarize(out[0]), summarize(out[1])
	wrong := checkPredictions(out[0], pl.seq, singles, classes)
	for i := range out[1] {
		if r := &out[1][i]; r.ok() && r.status != http.StatusAccepted {
			wrong++
		}
	}
	m.attempted = len(out[0]) + len(out[1])
	m.failed = ps.Failed + ss.Failed + wrong
	m.e2e["p50_ms"] = ps.P50.Value
	m.p95(ps.P95.Value)
	m.note("p99_ms", "ms", ps.P99.Value)
	m.e2e["cpu_us_per_window"] = float64(cpu1-cpu0) / float64(time.Microsecond) /
		float64(len(out[0])+len(out[1])*mixedStreamBatch)
	if m.e2e["rss_mb"], err = procHWM(pid); err != nil {
		return nil, err
	}
	m.note("samples", "count", float64(ps.P99.Samples))
	m.note("late_p99_ms", "ms", max(ps.LateP99.Value, ss.LateP99.Value))
	m.note("stream_p50_ms", "ms", ss.P50.Value)
	m.note("stream_p99_ms", "ms", ss.P99.Value)
	m.note("stream_samples", "count", float64(ss.P99.Samples))
	folded := float64(st1.WindowsFolded - st0.WindowsFolded)
	var mean float64
	for _, b := range backlog {
		mean += float64(b)
	}
	mean /= float64(max(1, len(backlog)))
	if folded > 0 {
		m.note("fold_lag_ms", "ms", mean/(folded/elapsed.Seconds())*1000)
	}
	m.note("backlog_mean", "windows", mean)
	if folds := st1.BatchesFolded - st0.BatchesFolded; folds > 0 {
		m.note("windows_per_fold", "windows", folded/float64(folds))
	}
	m.note("dropped", "windows", float64(st1.Dropped-st0.Dropped))
	m.note("lost", "windows", float64(st1.WindowsLost-st0.WindowsLost))
	live := deltaOf(before, after, "predict", "stream_adapt")
	for _, s := range []string{"stream_encode", "fold", "checkpoint"} {
		m.note(s+"_us", "us", live.stageUS(s))
	}
	if e.trace {
		e.spans.clientSpans(start, out[0])
		e.spans.clientSpans(start, out[1])
	}

	final, err := drain(admin, c.base)
	if err != nil {
		return nil, err
	}
	m.check(final.reconciles(), "stream queue does not reconcile: %+v", final)
	m.check(final.Enqueued == int64(accepted), "server enqueued %d windows, client got 202s for %d", final.Enqueued, accepted)
	m.check(final.Dropped == 0 && final.WindowsLost == 0, "stream dropped %d and lost %d windows", final.Dropped, final.WindowsLost)
	if tried := final.Adapt.PseudoLabels + final.Adapt.Skipped; tried > 0 {
		m.note("pseudo_label_ratio", "ratio", float64(final.Adapt.PseudoLabels)/float64(tried))
	}
	adaptedAcc, baseAcc, err := accuracy(admin, c.base, fx)
	if err != nil {
		return nil, err
	}
	m.note("target_acc", "ratio", adaptedAcc)
	m.note("baseline_acc", "ratio", baseAcc)
	m.check(adaptedAcc >= baseAcc, "streamed model accuracy %.4f below the source-only baseline %.4f", adaptedAcc, baseAcc)

	if e.trace {
		if err := traceServer(e, m, fx, singles, out[0], live, deltaOf(before, after, "predict"), fx.adaptedPath); err != nil {
			return nil, err
		}
	}
	exported, err := getBytes(admin, c.base+"/v1/model")
	if err != nil {
		return nil, err
	}
	err = c.stop()
	c = nil
	if err != nil {
		return nil, err
	}
	// Set-up here is crash-safe recovery: each restart reads the state dir
	// and must serve exactly the model that was shut down.
	var setups []float64
	for range starts {
		r, d, err := startServer(fx.bin, args...)
		if err != nil {
			return nil, err
		}
		got, err := getBytes(admin, r.base+"/v1/model")
		if err != nil {
			r.kill()
			return nil, err
		}
		m.check(bytes.Equal(got, exported), "recovered model differs from the model at shutdown")
		if err := r.stop(); err != nil {
			return nil, err
		}
		setups = append(setups, secs(d))
	}
	m.e2e["setup_s"] = median(setups)
	return m, nil
}

// pollBacklog samples the stream backlog (queued plus in flight) every
// foldPoll until stop closes.
func pollBacklog(base string, stop <-chan struct{}) []int {
	client := newClient()
	defer client.CloseIdleConnections()
	tick := time.NewTicker(foldPoll)
	defer tick.Stop()
	var out []int
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			if st, err := getStreamStats(client, base); err == nil {
				out = append(out, st.backlog())
			}
		}
	}
}

// drain waits until the stream queue is empty and nothing is in flight.
func drain(client *http.Client, base string) (streamStats, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := getStreamStats(client, base)
		if err != nil || st.backlog() == 0 {
			return st, err
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("stream queue not drained within 60s: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// accuracy scores the pool through the live server, adapted and
// source-only, against its labels.
func accuracy(client *http.Client, base string, fx *fixture) (adapted, source float64, err error) {
	for _, sourceOnly := range []bool{false, true} {
		hits := 0
		for lo := 0; lo < len(fx.pool); lo += 200 {
			hi := min(lo+200, len(fx.pool))
			body, err := json.Marshal(windowsBody{Windows: fx.pool[lo:hi], SourceOnly: sourceOnly})
			if err != nil {
				return 0, 0, err
			}
			var resp predictResponse
			if err := postJSON(client, base+"/v1/predict", body, &resp); err != nil {
				return 0, 0, err
			}
			for i, p := range resp.Predictions {
				if p == fx.labels[lo+i] {
					hits++
				}
			}
		}
		acc := float64(hits) / float64(len(fx.pool))
		if sourceOnly {
			source = acc
		} else {
			adapted = acc
		}
	}
	return adapted, source, nil
}

// Train-offline sizes the dataset like `smore train -per-class 2000`: two
// source domains of 10,000 windows and a 10,000-window target.
const offlinePerClass = 2000

// seed1TargetAcc pins the adapted target accuracy of seed 1, so a change
// that alters what adaptation computes fails the run.
const seed1TargetAcc = 1.0

func runTrainOffline(e *env) (*measurement, error) {
	m := newMeasurement()
	cfg := trainConfig(e.seed, offlinePerClass)
	ds, err := data.Generate(cfg.Data)
	if err != nil {
		return nil, err
	}
	var train []data.Sample
	for d := 0; d < len(ds.Domains)-1; d++ {
		tr, _ := data.Split(ds.Domains[d], cfg.TrainFrac)
		train = append(train, tr...)
	}
	trainWin := data.Windows(train)
	target := ds.Domains[len(ds.Domains)-1]
	targetWin, targetLab := data.Windows(target), data.Labels(target)
	perRep := len(trainWin) + len(targetWin)

	// Set-up is building the encoder's item memories and an empty ensemble:
	// well under a millisecond, so it is repeated many times. It runs with
	// the dataset already on the heap, so the collector seldom runs during
	// the trials and their median does not depend on when it does.
	var setups []float64
	var enc *encode.Encoder
	for range 301 {
		t0 := time.Now()
		var err error
		if enc, err = encode.New(cfg.Encoder); err != nil {
			return nil, err
		}
		if _, err := model.New(cfg.Model); err != nil {
			return nil, err
		}
		setups = append(setups, secs(time.Since(t0)))
	}
	m.e2e["setup_s"] = median(setups)

	// One repetition: encode + Train on the source split, then encode +
	// AdaptBatch on the target, exactly the work `smore train` times. Only
	// the latest repetition's model and vectors stay reachable, so peak
	// memory does not grow with the number of repetitions.
	type rep struct {
		start               time.Time
		total, train, adapt time.Duration
		cpu                 time.Duration
		hits, baseHits      int
	}
	var (
		lastModel   *model.Ensemble
		lastSamples []model.Sample
		lastTargets []hdc.Vector
	)
	once := func() (rep, error) {
		var r rep
		lastModel, lastSamples, lastTargets = nil, nil, nil
		// Each repetition starts from a collected heap, so one repetition's
		// garbage does not land in the next one's time or peak memory.
		runtime.GC()
		cpu0 := selfCPU()
		r.start = time.Now()
		hvs, err := enc.EncodeBatch(trainWin, 0)
		if err != nil {
			return r, err
		}
		samples := make([]model.Sample, len(hvs))
		for i, s := range train {
			samples[i] = model.Sample{HV: hvs[i], Class: s.Class, Domain: s.Domain}
		}
		mdl, err := model.New(cfg.Model)
		if err != nil {
			return r, err
		}
		if err := mdl.Train(samples); err != nil {
			return r, err
		}
		trained := time.Now()
		targets, err := enc.EncodeBatch(targetWin, 0)
		if err != nil {
			return r, err
		}
		base := mdl.Snapshot()
		if _, err := mdl.AdaptBatch(targets, 0); err != nil {
			return r, err
		}
		end := time.Now()
		r.cpu = selfCPU() - cpu0
		r.total, r.train, r.adapt = end.Sub(r.start), trained.Sub(r.start), end.Sub(trained)
		for i, p := range mdl.Snapshot().PredictBatch(targets, 0) {
			if p == targetLab[i] {
				r.hits++
			}
		}
		for i, p := range base.PredictSourceBatch(targets, 0) {
			if p == targetLab[i] {
				r.baseHits++
			}
		}
		lastModel, lastSamples, lastTargets = mdl, samples, targets
		return r, nil
	}
	for t0 := time.Now(); time.Since(t0) < e.warmup; {
		if _, err := once(); err != nil {
			return nil, err
		}
	}

	var reps []rep
	var cpu time.Duration
	for t0 := time.Now(); len(reps) < 1 || time.Since(t0) < time.Duration(e.seconds*float64(time.Second)); {
		r, err := once()
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		cpu += r.cpu
		m.attempted++
		if r.hits != reps[0].hits || r.baseHits != reps[0].baseHits {
			m.failed++
		}
		if e.trace {
			tr, root := e.spans.root("offline.repetition", r.start, r.start.Add(r.total))
			e.spans.child(tr, root, "offline.train", r.start, r.start.Add(r.train))
			e.spans.child(tr, root, "offline.adapt", r.start.Add(r.train), r.start.Add(r.total))
		}
	}
	m.layer["bench.client_cpu_s"] = secs(cpu)
	m.layer["bench.samples"] = float64(len(reps))
	var total, trainT, adaptT []float64
	for _, r := range reps {
		total = append(total, ms(r.total))
		trainT = append(trainT, secs(r.train))
		adaptT = append(adaptT, secs(r.adapt))
	}
	m.e2e["p50_ms"] = median(slices.Clone(total))
	m.p95(nearestRank(slices.Clone(total), 0.95).Value)
	m.note("p99_ms", "ms", nearestRank(total, 0.99).Value)
	m.e2e["cpu_us_per_window"] = float64(cpu) / float64(time.Microsecond) / float64(perRep*len(reps))
	if m.e2e["rss_mb"], err = procHWM(os.Getpid()); err != nil {
		return nil, err
	}
	acc := float64(reps[0].hits) / float64(len(targetLab))
	baseAcc := float64(reps[0].baseHits) / float64(len(targetLab))
	m.note("train_s", "s", median(trainT))
	m.note("adapt_s", "s", median(adaptT))
	m.note("target_acc", "ratio", acc)
	m.note("baseline_acc", "ratio", baseAcc)
	m.note("samples", "count", float64(len(reps)))
	if e.seed == 1 {
		m.check(acc == seed1TargetAcc, "target accuracy %.6f differs from the committed %.6f for seed 1", acc, seed1TargetAcc)
	}

	if e.trace {
		if err := traceOffline(e, m, cfg, enc, lastModel, lastSamples, targetWin, lastTargets); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// traceOffline fills train-offline's per-layer metrics. There is no live
// server, so the serve and net rows come from replaying the target split
// as 64-window predict bodies through an in-process server on the model
// just adapted: what serving it would cost, with no socket in the way.
func traceOffline(e *env, m *measurement, cfg pipeline.Config, enc *encode.Encoder, adapted *model.Ensemble,
	train []model.Sample, targetWin [][][]float64, targetHVs []hdc.Vector) error {
	adaptedBytes, err := bundleBytes(&pipeline.Bundle{Encoder: cfg.Encoder, Model: adapted})
	if err != nil {
		return err
	}
	src, err := model.New(cfg.Model)
	if err != nil {
		return err
	}
	if err := src.Train(train); err != nil {
		return err
	}
	srcBytes, err := bundleBytes(&pipeline.Bundle{Encoder: cfg.Encoder, Model: src})
	if err != nil {
		return err
	}
	bs := &bodySet{}
	for lo := 0; lo+64 <= len(targetWin) && len(bs.bodies) < 48; lo += 64 {
		if err := bs.add(targetWin[lo : lo+64]); err != nil {
			return err
		}
	}
	b, err := pipeline.ReadBundle(bytes.NewReader(adaptedBytes))
	if err != nil {
		return err
	}
	rp, err := replayPredict(e.spans, b, bs.bodies, 48)
	if err != nil {
		return err
	}
	replayLayer(rp, m.layer)
	serverLayer(rp.server, m.layer)
	m.layer["net.overhead_us"] = rp.handler - rp.server.endpointUS()
	return runProbes(probeInput{
		enc: enc, mcfg: cfg.Model, windows: targetWin[:1024], targets: targetHVs,
		train: train, sourceBundle: srcBytes, adaptedBundle: adaptedBytes,
	}, m.layer)
}
