package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// countingServer answers 200 to every request and counts them; stallAt > 0
// makes the request arriving with that number sleep for stall first.
func countingServer(t *testing.T, stallAt int64, stall time.Duration) (*httptest.Server, *atomic.Int64) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &n
}

func TestOpenLoopIssuesRateTimesDuration(t *testing.T) {
	srv, served := countingServer(t, 0, 0)
	const rate, seconds = 200.0, 0.5
	n := int(rate * seconds)
	l := &lane{path: "/", rate: rate, bodies: [][]byte{[]byte(`{}`)}, seq: make([]int, n), conns: 2}
	start := time.Now()
	_, out := runLanes(context.Background(), srv.URL, l)
	elapsed := time.Since(start)
	if len(out[0]) != n || served.Load() != int64(n) {
		t.Fatalf("issued %d records, server saw %d requests; want %d", len(out[0]), served.Load(), n)
	}
	for i := range out[0] {
		if !out[0][i].ok() {
			t.Fatalf("request %d failed: status %d err %v", i, out[0][i].status, out[0][i].err)
		}
	}
	// The last request is due at (n-1)/rate; an open loop cannot finish
	// much earlier than that.
	if due := l.dueAt(n - 1); elapsed < due {
		t.Fatalf("run took %v, before the last request was even due (%v)", elapsed, due)
	}
}

func TestOpenLoopStallDelaysQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	srv, _ := countingServer(t, 10, stall)
	// One connection at 100 req/s: request 9 (the 10th to arrive) stalls,
	// and the ~20 requests released during the stall queue behind it.
	l := &lane{path: "/", rate: 100, bodies: [][]byte{[]byte(`{}`)}, seq: make([]int, 60), conns: 1}
	_, out := runLanes(context.Background(), srv.URL, l)
	recs := out[0]
	if got := recs[9].latency(); got < stall {
		t.Fatalf("stalled request latency %v, want >= %v", got, stall)
	}
	// Request 10 was released ~10ms after request 9, so it waited ~190ms.
	if got := recs[10].latency(); got < stall-50*time.Millisecond {
		t.Fatalf("request released behind the stall took %v; the stall must show in its latency", got)
	}
	delayed := 0
	for i := range recs {
		if recs[i].latency() > 50*time.Millisecond {
			delayed++
		}
	}
	if delayed < 10 {
		t.Fatalf("%d requests saw the stall, want at least 10", delayed)
	}
	// The generator kept releasing on schedule while the worker was stuck.
	if late := summarize(recs).LateP99; late.Value > 50 {
		t.Fatalf("generator ran %vms late at p99 during the stall", late.Value)
	}
}

func TestNearestRankReportsSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted
	}
	if q := nearestRank(xs, 0.50); q.Value != 50 || q.Samples != 100 {
		t.Fatalf("p50 = %+v, want 50 over 100", q)
	}
	if q := nearestRank(xs, 0.99); q.Value != 99 || q.Samples != 100 {
		t.Fatalf("p99 = %+v, want 99 over 100", q)
	}
	if q := nearestRank([]float64{3, 1, 2}, 0.99); q.Value != 3 || q.Samples != 3 {
		t.Fatalf("p99 of 3 samples = %+v, want the maximum 3 over 3", q)
	}
	if q := nearestRank(nil, 0.5); !math.IsNaN(q.Value) || q.Samples != 0 {
		t.Fatalf("empty p50 = %+v, want NaN over 0", q)
	}
}
