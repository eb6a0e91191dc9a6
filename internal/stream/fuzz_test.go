package stream

import (
	"errors"
	"slices"
	"testing"
	"time"

	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
)

// confID is a confidence rule that only carries an identity, so a recorded
// install names the queued strategy it came from.
type confID int

func (confID) Name() string                             { return "margin" }
func (confID) Assess([]float64) (int, float64, float64) { return 0, 0, 0 }

// FuzzAdapterOps drives an adapter with a sequence of operations decoded
// from the input and checks it after every one against a small reference
// of the queue, the micro-batch boundaries, the strategy installs and the
// fold circuit. Each input byte is one op: the low two bits pick enqueue
// (0), enqueue with a strategy (1), or one inline micro-batch whose fold
// succeeds (2) or fails (3); an enqueue carries 1 + (byte>>2)%10 windows.
// The cooldown is an hour, so an open circuit rejects every enqueue for the
// rest of the input while queued batches still report their folds.
func FuzzAdapterOps(f *testing.F) {
	f.Add([]byte{0x04, 0x09, 0x02, 0x0d, 0x02, 0x02, 0x02, 0x02})
	f.Add([]byte{0x08, 0x01, 0x05, 0x03, 0x03, 0x00, 0x03, 0x02, 0x02, 0x02})
	f.Add([]byte{0x1c, 0x20, 0x24, 0x01, 0x01, 0x01, 0x01, 0x03, 0x03, 0x02, 0x03, 0x03, 0x02})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const queueCap, maxBatch, threshold = 8, 3, 2
		var (
			encoded  [][]int // window numbers of each encoded batch
			installs []int   // confID of each installed strategy
			failFold bool
		)
		a := New(Config{
			QueueCap: queueCap, MaxBatch: maxBatch, BreakerThreshold: threshold, BreakerCooldown: time.Hour,
			SetStrategy: func(s model.Strategy) { installs = append(installs, int(s.Confidence.(confID))) },
		},
			func(windows [][][]float64) ([]hdc.Vector, error) {
				batch := make([]int, len(windows))
				for i, w := range windows {
					batch[i] = int(w[0][0])
				}
				encoded = append(encoded, batch)
				return make([]hdc.Vector, len(windows)), nil
			},
			func([]hdc.Vector) (model.AdaptStats, error) {
				if failFold {
					return model.AdaptStats{}, errors.New("fold failed")
				}
				return model.AdaptStats{}, nil
			},
		)

		// The reference: queued windows with the strategy each carries (0
		// for none), the batches and installs the worker must make, and a
		// two-state circuit (half-open needs the hour to pass).
		type queued struct{ window, strat int }
		var (
			queue        []queued
			wantEncoded  [][]int
			wantInstalls []int
			open         bool
			fails        int
			opens        int64
			windows      int
			strats       int
		)
		for i, op := range ops {
			switch op & 3 {
			case 0, 1:
				n := 1 + int(op>>2)%10
				var strat *model.Strategy
				id := 0
				if op&3 == 1 {
					strats++
					id = strats
					strat = &model.Strategy{Confidence: confID(id)}
				}
				batch := make([][][]float64, n)
				for j := range batch {
					batch[j] = fakeWindow(windows + j + 1)
				}
				var want error
				switch {
				case open:
					want = ErrCircuitOpen
				case n > queueCap:
					want = ErrTooLarge
				case len(queue)+n > queueCap:
					want = ErrQueueFull
				}
				_, err := a.Enqueue(batch, strat)
				if !errors.Is(err, want) {
					t.Fatalf("op %d: enqueue of %d windows returned %v, want %v", i, n, err, want)
				}
				var coe *CircuitOpenError
				if open && (!errors.As(err, &coe) || coe.RetryAfter <= 0) {
					t.Fatalf("op %d: open circuit rejected with %v, want a CircuitOpenError with a retry hint", i, err)
				}
				if want == nil {
					for j := range n {
						queue = append(queue, queued{window: windows + j + 1})
					}
					queue[len(queue)-n].strat = id
					windows += n
				}
			case 2, 3:
				failFold = op&3 == 3
				if more := a.runOnce(false); more != (len(queue) > 0) {
					t.Fatalf("op %d: runOnce = %v with %d windows queued", i, more, len(queue))
				}
				if len(queue) == 0 {
					break
				}
				// A micro-batch holds at most maxBatch windows and ends
				// before the next window that carries a strategy.
				n := 1
				for n < min(len(queue), maxBatch) && queue[n].strat == 0 {
					n++
				}
				if s := queue[0].strat; s != 0 {
					wantInstalls = append(wantInstalls, s)
				}
				batch := make([]int, n)
				for j, q := range queue[:n] {
					batch[j] = q.window
				}
				wantEncoded = append(wantEncoded, batch)
				queue = queue[n:]
				if !failFold {
					open, fails = false, 0
				} else if fails++; fails >= threshold {
					if !open {
						opens++
					}
					open, fails = true, 0
				}
			}

			st := a.Stats()
			if st.Enqueued != st.WindowsFolded+st.WindowsLost+int64(st.QueueDepth)+int64(st.InFlight) {
				t.Fatalf("op %d: the books do not balance: %+v", i, st)
			}
			if st.QueueDepth != len(queue) || st.InFlight != 0 {
				t.Fatalf("op %d: queue depth %d, in flight %d; want %d, 0", i, st.QueueDepth, st.InFlight, len(queue))
			}
			if !slices.EqualFunc(encoded, wantEncoded, slices.Equal) {
				t.Fatalf("op %d: micro-batches %v, want %v", i, encoded, wantEncoded)
			}
			if !slices.Equal(installs, wantInstalls) {
				t.Fatalf("op %d: installs %v, want %v", i, installs, wantInstalls)
			}
			wantCircuit := circuitClosed
			if open {
				wantCircuit = circuitOpen
			}
			if st.Circuit != wantCircuit || st.CircuitOpens != opens {
				t.Fatalf("op %d: circuit %s opened %d times, want %s opened %d times",
					i, st.Circuit, st.CircuitOpens, wantCircuit, opens)
			}
		}
	})
}
