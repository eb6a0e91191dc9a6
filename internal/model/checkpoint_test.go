package model

import (
	"bytes"
	"testing"

	"go-arxiv/smore/internal/hdc"
)

// TestCheckpointBytesRestoreRoundTrip proves the serving layer's durability
// contract: the rollback checkpoint exported from one ensemble, restored
// into a freshly decoded copy (as startup recovery does), yields a rollback
// byte-identical to the original pre-drift state.
func TestCheckpointBytesRestoreRoundTrip(t *testing.T) {
	m, _, phaseA, phaseB := targetFixture(t, 91)
	if _, err := m.AdaptIncremental(phaseA[0], 2); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().CheckpointBytes() != nil {
		t.Fatal("checkpoint exists before any spawn")
	}
	preSpawn := marshalEnsemble(t, m)
	if _, _, err := m.SpawnTarget("shift", 4, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AdaptIncremental(phaseB[0], 2); err != nil {
		t.Fatal(err)
	}
	cp := m.Snapshot().CheckpointBytes()
	if !bytes.Equal(cp, preSpawn) {
		t.Fatal("the snapshot's rollback checkpoint is not the pre-spawn state")
	}

	// Persist the adapted ensemble and decode it fresh — the in-memory
	// rollback checkpoint does not travel with the wire format.
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Snapshot().HasCheckpoint() {
		t.Fatal("decoded ensemble has a checkpoint; expected none persisted")
	}
	if err := m2.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if !m2.Snapshot().HasCheckpoint() {
		t.Fatal("RestoreCheckpoint did not install the checkpoint")
	}
	if err := m2.Rollback(); err != nil {
		t.Fatal(err)
	}
	var rolled bytes.Buffer
	if _, err := m2.WriteTo(&rolled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rolled.Bytes(), cp) {
		t.Fatal("rollback after RestoreCheckpoint is not byte-identical to the checkpoint")
	}
}

func TestRestoreCheckpointRejectsGarbage(t *testing.T) {
	m, _, phaseA, _ := targetFixture(t, 92)
	if _, err := m.AdaptIncremental(phaseA[0], 2); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{nil, {}, []byte("SMEX"), bytes.Repeat([]byte{0x7F}, 128)} {
		if err := m.RestoreCheckpoint(b); err == nil {
			t.Fatalf("RestoreCheckpoint accepted %d garbage bytes", len(b))
		}
	}
	if m.Snapshot().HasCheckpoint() {
		t.Fatal("rejected restore left a checkpoint behind")
	}
	// A truncated-but-prefixed copy of a real checkpoint must also fail.
	if _, _, err := m.SpawnTarget("", 4, false); err != nil {
		t.Fatal(err)
	}
	cp := m.Snapshot().CheckpointBytes()
	if err := m.RestoreCheckpoint(cp[:len(cp)/2]); err == nil {
		t.Fatal("RestoreCheckpoint accepted a truncated checkpoint")
	}
}

// TestSnapshotCarriesVersionTargetsCheckpoint pins what every publish stamps
// on the snapshot: each published change moves the version by exactly one,
// the target list includes a pending spawn, the rollback checkpoint rides
// along (and survives Rollback), a strategy change is published, and Encode
// hands back the snapshot of the state its bytes hold without publishing.
func TestSnapshotCarriesVersionTargetsCheckpoint(t *testing.T) {
	m, _, phaseA, phaseB := targetFixture(t, 93)
	version := m.Snapshot().Version()
	step := func(what string, change func() error) *Snapshot {
		t.Helper()
		if err := change(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		version++
		s := m.Snapshot()
		if s.Version() != version {
			t.Fatalf("after %s the version is %d, want %d", what, s.Version(), version)
		}
		return s
	}
	fold := func(batch []hdc.Vector) func() error {
		return func() error { _, err := m.AdaptIncremental(batch, 2); return err }
	}
	step("a fold", fold(phaseA[0]))
	s := step("a spawn", func() error { _, _, err := m.SpawnTarget("", 0, false); return err })
	if got := s.Targets(); len(got) != 2 || got[1].Ready || !got[1].Active {
		t.Fatalf("after a spawn Targets() = %+v, want t0 and an active pending t1", got)
	}
	if !s.HasCheckpoint() {
		t.Fatal("the spawn's snapshot carries no rollback checkpoint")
	}
	cp := s.CheckpointBytes()
	step("a fold into the spawn", fold(phaseB[0]))

	raw, es, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if es != m.Snapshot() || es.Version() != version {
		t.Fatal("Encode did not return the published snapshot of the encoded state")
	}
	if !bytes.Equal(raw, marshalEnsemble(t, m)) {
		t.Fatal("Encode and WriteTo disagree")
	}

	s = step("a rollback", m.Rollback)
	if !s.HasCheckpoint() || !bytes.Equal(s.CheckpointBytes(), cp) {
		t.Fatal("the rollback's snapshot lost the checkpoint that Rollback keeps")
	}
	if got := s.Targets(); len(got) != 1 || got[0].Name != "t0" {
		t.Fatalf("after a rollback Targets() = %+v, want only t0", got)
	}
	ema := Strategy{Confidence: EntropyCalConfidence{}, Update: EMAUpdate{}}
	s = step("a strategy change", func() error { m.SetStrategy(ema); return nil })
	if got := s.Strategy().String(); got != ema.String() {
		t.Fatalf("after SetStrategy the snapshot names %s, want %s", got, ema)
	}
	s = step("a restore", func() error { return m.RestoreCheckpoint(cp) })
	if !bytes.Equal(s.CheckpointBytes(), cp) {
		t.Fatal("RestoreCheckpoint did not republish with the restored checkpoint")
	}
	s = step("a load", func() error { _, err := m.ReadFrom(bytes.NewReader(raw)); return err })
	if got := s.Strategy().String(); got != DefaultStrategy().String() {
		t.Fatalf("after loading default-strategy bytes the snapshot names %s", got)
	}
}
