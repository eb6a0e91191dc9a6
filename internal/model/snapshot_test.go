package model

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"go-arxiv/smore/internal/hdc"
)

// snapshotFixture builds a trained ensemble, a byte-identical replica of it
// (round-tripped through the wire format), a probe query, and the fold
// batches both copies will see.
func snapshotFixture(t *testing.T) (orig, replica *Ensemble, probe hdc.Vector, batches [][]hdc.Vector) {
	t.Helper()
	rng := testRNG(91)
	_, samples := cluster(rng, 4, 10, testDim/3, 0)
	_, more := cluster(rng, 4, 10, testDim/3, 1)
	samples = append(samples, more...)
	orig, err := New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Train(samples); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	replica, err = Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	probe = samples[0].HV
	for b := range 6 {
		var batch []hdc.Vector
		for i := range 8 {
			batch = append(batch, samples[(b*8+i)%len(samples)].HV)
		}
		batches = append(batches, batch)
	}
	return orig, replica, probe, batches
}

// TestSnapshotPublicationIsAtomic is the -race acceptance test for the
// copy-on-write serving path: predictions racing adaptation folds and wire
// exports must always score against a fully-published model version.
//
// Folds are deterministic for any worker count, so the exact per-version
// score vector of a probe query is precomputable on a byte-identical
// replica folded serially. Concurrent lock-free ScoreInto calls on the
// original must then return a vector exactly equal to one of those
// versions — a half-rebuilt prototype matrix would produce a vector outside
// the set.
func TestSnapshotPublicationIsAtomic(t *testing.T) {
	orig, replica, probe, batches := snapshotFixture(t)
	classes := orig.Config().Classes

	// Expected score vector per model version: v0 before any fold, then one
	// per folded batch.
	expected := make([][]float64, 0, len(batches)+1)
	record := func(m *Ensemble) {
		scores := make([]float64, classes)
		if err := m.Snapshot().ScoreInto(probe, scores); err != nil {
			t.Fatal(err)
		}
		expected = append(expected, scores)
	}
	record(replica)
	for _, batch := range batches {
		if _, err := replica.AdaptIncremental(batch, 2); err != nil {
			t.Fatal(err)
		}
		record(replica)
	}

	matches := func(scores []float64) bool {
		for _, want := range expected {
			same := true
			for c := range want {
				if scores[c] != want[c] {
					same = false
					break
				}
			}
			if same {
				return true
			}
		}
		return false
	}

	var wg sync.WaitGroup
	errCh := make(chan string, 1)
	report := func(msg string) {
		select {
		case errCh <- msg:
		default:
		}
	}
	stop := make(chan struct{})
	for range 4 { // lock-free readers
		wg.Add(1)
		go func() {
			defer wg.Done()
			scores := make([]float64, classes)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := orig.Snapshot().ScoreInto(probe, scores); err != nil {
					report(err.Error())
					return
				}
				if !matches(scores) {
					report("ScoreInto returned a vector matching no published model version (torn snapshot?)")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // concurrent exporter: WriteTo flushes staging under the mutator lock
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := orig.WriteTo(io.Discard); err != nil {
				report(err.Error())
				return
			}
		}
	}()

	for _, batch := range batches {
		if _, err := orig.AdaptIncremental(batch, 2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errCh:
		t.Fatal(msg)
	default:
	}

	// After the same folds in the same order, the original must sit exactly
	// on the final version.
	final := make([]float64, classes)
	if err := orig.Snapshot().ScoreInto(probe, final); err != nil {
		t.Fatal(err)
	}
	for c, want := range expected[len(expected)-1] {
		if final[c] != want {
			t.Fatalf("final score[%d] = %v, want %v (replica and original diverged)", c, final[c], want)
		}
	}
}

// TestSnapshotIsImmutableAcrossFolds pins the copy-on-write contract: a
// snapshot held across further adaptation keeps answering with the state it
// captured, and its adapted prototypes never change underneath the holder.
func TestSnapshotIsImmutableAcrossFolds(t *testing.T) {
	orig, _, probe, batches := snapshotFixture(t)
	classes := orig.Config().Classes

	if _, err := orig.AdaptIncremental(batches[0], 1); err != nil {
		t.Fatal(err)
	}
	held := orig.Snapshot()
	if !held.Adapted() {
		t.Fatal("snapshot after a fold does not report adapted")
	}
	before := make([]float64, classes)
	if err := held.ScoreInto(probe, before); err != nil {
		t.Fatal(err)
	}
	protosBefore := held.AdaptedPrototypes()
	frozen := make([]hdc.Vector, len(protosBefore))
	for i, p := range protosBefore {
		frozen[i] = p.Clone()
	}

	for _, batch := range batches[1:] {
		if _, err := orig.AdaptIncremental(batch, 1); err != nil {
			t.Fatal(err)
		}
	}
	if orig.Snapshot() == held {
		t.Fatal("folds did not publish a new snapshot")
	}

	after := make([]float64, classes)
	if err := held.ScoreInto(probe, after); err != nil {
		t.Fatal(err)
	}
	for c := range before {
		if before[c] != after[c] {
			t.Fatalf("held snapshot's score[%d] changed %v -> %v across folds", c, before[c], after[c])
		}
	}
	for i, p := range held.AdaptedPrototypes() {
		if !p.Equal(frozen[i]) {
			t.Fatalf("held snapshot's adapted prototype %d mutated across folds", i)
		}
	}
}

// TestSnapshotNilBeforeTrain pins the untrained contract: there is no
// snapshot to read until Train publishes one.
func TestSnapshotNilBeforeTrain(t *testing.T) {
	m, err := New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Snapshot() != nil {
		t.Fatal("untrained ensemble published a snapshot")
	}
}
