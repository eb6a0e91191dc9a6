package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"
)

// lane is one open-loop request stream: a fixed arrival rate over a
// pre-built request sequence, served by its own connections. A generator
// releases request i at start + i/rate whether or not earlier requests have
// finished, so a server stall queues the requests behind it instead of
// silently lowering the offered load.
type lane struct {
	path   string
	rate   float64  // requests per second
	bodies [][]byte // request i sends bodies[seq[i]]
	seq    []int
	conns  int // connections (workers) draining this lane's queue
}

// record is one request's client-side timeline, in offsets from the phase
// start, plus its outcome. Every run records it; a traced run turns it into
// client spans afterwards, so tracing adds nothing to the timed path.
type record struct {
	due, released, sent, done time.Duration
	status                    int
	err                       error
	body                      []byte
}

// latency is the request's time from release to the end of its response:
// the client-visible latency including any wait behind a stalled request.
func (r *record) latency() time.Duration { return r.done - r.released }

// ok reports whether the request completed with a 2xx status.
func (r *record) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// newClient returns an HTTP client that holds exactly one keep-alive
// connection, so a lane's connection count is its worker count.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// runLanes drives every lane open-loop against base for their sequences'
// durations. It returns the common start instant the records' offsets count
// from, and one record slice per lane, indexed like the lane's seq.
func runLanes(ctx context.Context, base string, lanes ...*lane) (time.Time, [][]record) {
	out := make([][]record, len(lanes))
	var wg sync.WaitGroup
	start := time.Now()
	for li, l := range lanes {
		recs := make([]record, len(l.seq))
		out[li] = recs
		// Sized to the number of sends: the generator never blocks, however
		// far the workers fall behind.
		queue := make(chan int, len(l.seq))
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.generate(ctx, start, recs, queue)
		}()
		for range l.conns {
			client := newClient()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer client.CloseIdleConnections()
				for i := range queue {
					l.send(ctx, client, base, start, i, &recs[i])
				}
			}()
		}
	}
	wg.Wait()
	return start, out
}

// dueAt is request i's scheduled release offset.
func (l *lane) dueAt(i int) time.Duration {
	return time.Duration(float64(i) * float64(time.Second) / l.rate)
}

// generate releases requests on schedule. After each sleep it releases every
// request already due, so timer slop delays releases but never drops them.
func (l *lane) generate(ctx context.Context, start time.Time, recs []record, queue chan<- int) {
	defer close(queue)
	for i := 0; i < len(recs); {
		if d := l.dueAt(i) - time.Since(start); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		}
		now := time.Since(start)
		for ; i < len(recs) && l.dueAt(i) <= now; i++ {
			recs[i].due, recs[i].released = l.dueAt(i), now
			queue <- i
		}
	}
}

// send issues request i and fills its record.
func (l *lane) send(ctx context.Context, client *http.Client, base string, start time.Time, i int, rec *record) {
	rec.sent = time.Since(start)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+l.path, bytes.NewReader(l.bodies[l.seq[i]]))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		if resp, err = client.Do(req); err == nil {
			rec.status = resp.StatusCode
			rec.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	rec.err = err
	rec.done = time.Since(start)
}

// quantile is a nearest-rank percentile together with the number of samples
// it was taken over.
type quantile struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// nearestRank returns the p-th percentile (0 < p <= 1) of xs by the
// nearest-rank method: the smallest sample with at least p of all samples at
// or below it. xs is sorted in place.
func nearestRank(xs []float64, p float64) quantile {
	if len(xs) == 0 {
		return quantile{Value: math.NaN()}
	}
	slices.Sort(xs)
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	return quantile{Value: xs[min(max(k, 0), len(xs)-1)], Samples: len(xs)}
}

// latencyStats summarizes a lane's records: p50/p95/p99 latency in
// milliseconds over the successful requests, the release lateness p99, and
// the failure count (non-2xx or transport error).
type latencyStats struct {
	P50, P95, P99, LateP99 quantile
	Failed                 int
}

func summarize(recs []record) latencyStats {
	var lat, late []float64
	failed := 0
	for i := range recs {
		r := &recs[i]
		late = append(late, ms(r.released-r.due))
		if !r.ok() {
			failed++
			continue
		}
		lat = append(lat, ms(r.latency()))
	}
	return latencyStats{
		P50:     nearestRank(slices.Clone(lat), 0.50),
		P95:     nearestRank(slices.Clone(lat), 0.95),
		P99:     nearestRank(lat, 0.99),
		LateP99: nearestRank(late, 0.99),
		Failed:  failed,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// schedule returns n request indices into a pool of bodies, drawn by next.
func schedule(n, pool int, next func(int) int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = next(pool)
	}
	return seq
}
