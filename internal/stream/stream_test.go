package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
)

// fakeWindow builds a distinguishable 1-timestep window whose single sensor
// value carries the window's sequence number.
func fakeWindow(i int) [][]float64 { return [][]float64{{float64(i)}} }

// passthroughEncode turns each fake window back into a tagged (empty)
// vector; the tag rides along in a side slice recorded by the fold.
func passthroughEncode(windows [][][]float64) ([]hdc.Vector, error) {
	hvs := make([]hdc.Vector, len(windows))
	for i := range windows {
		hvs[i] = hdc.New(64)
		if windows[i][0][0] != 0 {
			hvs[i].SetBit(int(windows[i][0][0])%64, 1)
		}
	}
	return hvs, nil
}

// recordingFold appends each batch's size to sizes under mu.
type recordingFold struct {
	mu     sync.Mutex
	sizes  []int
	gate   chan struct{} // if non-nil, each fold blocks until a receive
	stats  model.AdaptStats
	err    error
	faults int // folds to fail before succeeding
}

func (f *recordingFold) fold(hvs []hdc.Vector) (model.AdaptStats, error) {
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.faults > 0 {
		f.faults--
		return model.AdaptStats{}, f.err
	}
	f.sizes = append(f.sizes, len(hvs))
	return f.stats, nil
}

func (f *recordingFold) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, len(f.sizes))
	copy(out, f.sizes)
	return out
}

func ctxShort(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestCoalescesIntoMaxBatchChunks(t *testing.T) {
	f := &recordingFold{stats: model.AdaptStats{Epochs: 1, PseudoLabels: 2, Skipped: 3}}
	a := New(Config{QueueCap: 64, MaxBatch: 4}, passthroughEncode, f.fold)
	windows := make([][][]float64, 10)
	for i := range windows {
		windows[i] = fakeWindow(i)
	}
	if _, err := a.Enqueue(windows, nil); err != nil {
		t.Fatal(err)
	}
	// Worker starts only now, so the batch boundaries are deterministic:
	// 4, 4, 2.
	a.Start()
	if err := a.Close(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	got := f.batchSizes()
	want := []int{4, 4, 2}
	if len(got) != len(want) {
		t.Fatalf("fold batches %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fold batches %v, want %v", got, want)
		}
	}
	st := a.Stats()
	if st.Enqueued != 10 || st.WindowsFolded != 10 || st.BatchesFolded != 3 {
		t.Fatalf("stats %+v: want 10 enqueued, 10 folded, 3 batches", st)
	}
	if st.Adapt.Epochs != 3 || st.Adapt.PseudoLabels != 6 || st.Adapt.Skipped != 9 {
		t.Fatalf("cumulative adapt stats %+v, want per-fold stats summed over 3 folds", st.Adapt)
	}
	if !st.Drained() || !st.Closed {
		t.Fatalf("post-close stats %+v: want drained and closed", st)
	}
}

func TestEnqueueBackpressureIsAllOrNothing(t *testing.T) {
	f := &recordingFold{gate: make(chan struct{})}
	a := New(Config{QueueCap: 4, MaxBatch: 2}, passthroughEncode, f.fold)
	a.Start()

	// Fill the queue (the worker may move up to MaxBatch windows in-flight
	// where they block on the gate, so keep feeding until depth == cap).
	deadline := time.After(5 * time.Second)
	for {
		depth, err := a.Enqueue([][][]float64{fakeWindow(1)}, nil)
		if err != nil {
			t.Fatalf("enqueue while filling: %v", err)
		}
		if depth == 4 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		default:
		}
	}

	// A batch that does not fit must be rejected whole, immediately.
	startReject := time.Now()
	if _, err := a.Enqueue([][][]float64{fakeWindow(7), fakeWindow(8)}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull enqueue error = %v, want ErrQueueFull", err)
	}
	if elapsed := time.Since(startReject); elapsed > time.Second {
		t.Fatalf("rejection took %v: Enqueue must not block on a full queue", elapsed)
	}
	st := a.Stats()
	if st.Dropped != 2 {
		t.Fatalf("dropped %d windows, want 2 (the whole rejected batch)", st.Dropped)
	}
	if st.QueueDepth != 4 {
		t.Fatalf("queue depth %d after rejection, want 4 (nothing partially enqueued)", st.QueueDepth)
	}

	// Release the worker; everything accepted so far must fold.
	go func() {
		for {
			select {
			case f.gate <- struct{}{}:
			case <-a.done:
				return
			}
		}
	}()
	if err := a.Close(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	st = a.Stats()
	if st.WindowsFolded != st.Enqueued {
		t.Fatalf("folded %d of %d enqueued windows", st.WindowsFolded, st.Enqueued)
	}
	if _, err := a.Enqueue([][][]float64{fakeWindow(9)}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close error = %v, want ErrClosed", err)
	}
}

// TestEnqueueRejectionOrder pins which error a batch failing several of
// Enqueue's checks gets: the circuit first, then the size, then shutdown,
// then free space, which alone counts the batch as dropped.
func TestEnqueueRejectionOrder(t *testing.T) {
	a := New(Config{QueueCap: 2, BreakerThreshold: 1, BreakerCooldown: time.Hour}, passthroughEncode, (&recordingFold{}).fold)
	if _, err := a.Enqueue([][][]float64{fakeWindow(1), fakeWindow(2)}, nil); err != nil {
		t.Fatal(err)
	}
	a.closed = true
	a.circuit.record(false, time.Now())
	big := [][][]float64{fakeWindow(3), fakeWindow(4), fakeWindow(5)}
	var open *CircuitOpenError
	if _, err := a.Enqueue(big, nil); !errors.As(err, &open) || open.RetryAfter <= 0 {
		t.Fatalf("open circuit, oversized, closed and full: error %v, want a CircuitOpenError with a retry hint", err)
	}
	a.circuit.record(true, time.Now())
	if _, err := a.Enqueue(big, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized, closed and full: error %v, want ErrTooLarge", err)
	}
	if _, err := a.Enqueue([][][]float64{fakeWindow(3)}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed and full: error %v, want ErrClosed", err)
	}
	a.closed = false
	if _, err := a.Enqueue([][][]float64{fakeWindow(3)}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full: error %v, want ErrQueueFull", err)
	}
	if st := a.Stats(); st.Enqueued != 2 || st.Dropped != 1 {
		t.Fatalf("stats %+v: want 2 enqueued and only the queue-full window dropped", st)
	}
}

func TestEncodeAndFoldErrorsAreCountedNotFatal(t *testing.T) {
	encodeErr := errors.New("bad window shape")
	flaky := func(windows [][][]float64) ([]hdc.Vector, error) {
		if windows[0][0][0] < 0 {
			return nil, encodeErr
		}
		return passthroughEncode(windows)
	}
	f := &recordingFold{err: fmt.Errorf("model: fold exploded"), faults: 1}
	a := New(Config{QueueCap: 8, MaxBatch: 1}, flaky, f.fold)
	if _, err := a.Enqueue([][][]float64{{{-1}}}, nil); err != nil { // encode error
		t.Fatal(err)
	}
	if _, err := a.Enqueue([][][]float64{fakeWindow(1)}, nil); err != nil { // fold error
		t.Fatal(err)
	}
	if _, err := a.Enqueue([][][]float64{fakeWindow(2)}, nil); err != nil { // succeeds
		t.Fatal(err)
	}
	a.Start()
	if err := a.Close(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.EncodeErrors != 1 || st.FoldErrors != 1 || st.BatchesFolded != 1 {
		t.Fatalf("stats %+v: want 1 encode error, 1 fold error, 1 folded batch", st)
	}
	if st.WindowsLost != 2 {
		t.Fatalf("stats %+v: the two failed 1-window batches must count as 2 lost windows", st)
	}
	if st.Enqueued != st.WindowsFolded+st.WindowsLost+int64(st.QueueDepth)+int64(st.InFlight) {
		t.Fatalf("stats %+v: window accounting does not reconcile", st)
	}
	if st.LastError != "" {
		t.Fatalf("LastError %q still set: the trailing successful fold must clear it", st.LastError)
	}
}

// TestLastErrorClearsOnSuccessfulFold pins the sticky-error fix: a failure
// is reported while it is the latest outcome, then cleared by the next clean
// fold while the cumulative error counters keep the history.
func TestLastErrorClearsOnSuccessfulFold(t *testing.T) {
	f := &recordingFold{err: fmt.Errorf("model: fold exploded"), faults: 1}
	a := New(Config{QueueCap: 8, MaxBatch: 1}, passthroughEncode, f.fold)
	if _, err := a.Enqueue([][][]float64{fakeWindow(1)}, nil); err != nil { // fails
		t.Fatal(err)
	}
	if !a.runOnce(false) {
		t.Fatal("worker stopped with a queued window")
	}
	if st := a.Stats(); st.LastError == "" {
		t.Fatal("LastError not recorded after the failed fold")
	}
	if _, err := a.Enqueue([][][]float64{fakeWindow(2)}, nil); err != nil { // succeeds
		t.Fatal(err)
	}
	a.runOnce(false)
	st := a.Stats()
	if st.LastError != "" {
		t.Fatalf("LastError %q survived a successful fold", st.LastError)
	}
	if st.FoldErrors != 1 || st.WindowsLost != 1 || st.BatchesFolded != 1 {
		t.Fatalf("stats %+v: clearing LastError must not touch the cumulative counters", st)
	}
}

func TestCloseWithoutStartDrainsQueue(t *testing.T) {
	f := &recordingFold{}
	a := New(Config{QueueCap: 8, MaxBatch: 8}, passthroughEncode, f.fold)
	if _, err := a.Enqueue([][][]float64{fakeWindow(1)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.WindowsFolded != 1 {
		t.Fatalf("folded %d windows, want 1", st.WindowsFolded)
	}
}

func TestConcurrentEnqueueNeverExceedsCapacity(t *testing.T) {
	f := &recordingFold{}
	a := New(Config{QueueCap: 16, MaxBatch: 4}, passthroughEncode, f.fold)
	a.Start()
	var wg sync.WaitGroup
	for p := range 8 {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := range 50 {
				_, err := a.Enqueue([][][]float64{fakeWindow(p*50 + i)}, nil)
				if err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("enqueue: %v", err)
					return
				}
				if d := a.Stats().QueueDepth; d > 16 {
					t.Errorf("queue depth %d exceeds capacity 16", d)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := a.Close(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.WindowsFolded != st.Enqueued {
		t.Fatalf("folded %d of %d accepted windows", st.WindowsFolded, st.Enqueued)
	}
	if st.Enqueued+st.Dropped != 400 {
		t.Fatalf("accepted %d + dropped %d != 400 submitted", st.Enqueued, st.Dropped)
	}
}

// TestCloseAbandonsQueueWhenFoldWedges pins the shutdown-robustness fix: a
// wedged fold must not let Close fold a stuffed queue forever. When the
// Close context expires, the remaining queue is abandoned into WindowsLost
// (books still balance) and the worker exits right after its in-flight
// batch. Run under -race: Close, the wedged fold, and Stats race by design.
func TestCloseAbandonsQueueWhenFoldWedges(t *testing.T) {
	f := &recordingFold{gate: make(chan struct{})}
	a := New(Config{QueueCap: 64, MaxBatch: 4}, passthroughEncode, f.fold)
	a.Start()
	windows := make([][][]float64, 12)
	for i := range windows {
		windows[i] = fakeWindow(i)
	}
	if _, err := a.Enqueue(windows, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never took a batch")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := a.Close(ctx)
	if err == nil {
		t.Fatal("close succeeded while the fold was wedged")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("close took %v despite its 50ms budget", d)
	}
	st := a.Stats()
	if st.WindowsLost != 8 || st.QueueDepth != 0 || st.InFlight != 4 {
		t.Fatalf("post-abandon stats %+v: want 8 lost, 0 queued, 4 in flight", st)
	}
	if st.Enqueued != st.WindowsFolded+st.WindowsLost+int64(st.QueueDepth)+int64(st.InFlight) {
		t.Fatalf("reconciliation invariant broken: %+v", st)
	}
	// Unwedge: the worker folds only its in-flight batch, never the
	// abandoned windows, and exits — observed by a second Close.
	close(f.gate)
	if err := a.Close(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	st = a.Stats()
	if st.WindowsFolded != 4 || st.WindowsLost != 8 || !st.Drained() {
		t.Fatalf("final stats %+v: want 4 folded, 8 lost, drained", st)
	}
	if got := f.batchSizes(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("fold batches %v, want [4]", got)
	}
}
