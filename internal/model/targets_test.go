package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"

	"go-arxiv/smore/internal/hdc"
)

// targetFixture builds a trained two-domain ensemble plus per-class target
// batches drawn from two distinct synthetic distributions ("phases"), so
// tests can fold coherent batches into distinct target domains.
func targetFixture(t *testing.T, seed uint64) (m *Ensemble, queries []hdc.Vector, phaseA, phaseB [][]hdc.Vector) {
	t.Helper()
	rng := testRNG(seed)
	protosA, samples := cluster(rng, 4, 12, testDim/3, 0)
	_, more := cluster(rng, 4, 12, testDim/3, 1)
	samples = append(samples, more...)
	m, err := New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(samples); err != nil {
		t.Fatal(err)
	}
	for c := range 4 {
		for range 4 {
			queries = append(queries, flip(rng, protosA[c], testDim/4))
		}
	}
	batch := func(protos []hdc.Vector, noise int) []hdc.Vector {
		var out []hdc.Vector
		for c := range 4 {
			for range 6 {
				out = append(out, flip(rng, protos[c], noise))
			}
		}
		return out
	}
	protosB := make([]hdc.Vector, 4)
	for c := range protosB {
		// Phase B shifts every class prototype by a common heavy
		// perturbation, emulating a distribution shift.
		protosB[c] = flip(rng, protosA[c], testDim/2)
	}
	for range 3 {
		phaseA = append(phaseA, batch(protosA, testDim/3))
		phaseB = append(phaseB, batch(protosB, testDim/3))
	}
	return m, queries, phaseA, phaseB
}

func scoresOf(t *testing.T, m *Ensemble, q hdc.Vector) []float64 {
	t.Helper()
	out := make([]float64, m.Config().Classes)
	if err := m.Snapshot().ScoreInto(q, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// readyTargets counts the targets s votes with; a pending spawn is not one.
func readyTargets(s *Snapshot) int {
	n := 0
	for _, ti := range s.Targets() {
		if ti.Ready {
			n++
		}
	}
	return n
}

// TestSpawnFoldVote walks the core multi-target lifecycle: the implicit
// first target is t0, a spawned target stays pending (excluded from voting)
// until its first fold, and after that fold both targets are ready and the
// vote runs over the target set.
func TestSpawnFoldVote(t *testing.T) {
	m, queries, phaseA, phaseB := targetFixture(t, 71)
	if _, err := m.AdaptIncremental(phaseA[0], 2); err != nil {
		t.Fatal(err)
	}
	infos := m.Snapshot().Targets()
	if len(infos) != 1 || infos[0].Name != "t0" || !infos[0].Active || !infos[0].Ready {
		t.Fatalf("after first fold Targets() = %+v, want single active ready t0", infos)
	}
	pre := scoresOf(t, m, queries[0])

	spawned, retired, err := m.SpawnTarget("", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if spawned != "t1" || retired != "" {
		t.Fatalf("SpawnTarget = (%q, %q), want (t1, none)", spawned, retired)
	}
	// A pending spawn must not change what the model serves.
	if n := readyTargets(m.Snapshot()); n != 1 {
		t.Fatalf("pending spawn published %d ready targets, want 1", n)
	}
	if got := scoresOf(t, m, queries[0]); !floatsEqual(got, pre) {
		t.Fatalf("pending spawn changed served scores: %v -> %v", pre, got)
	}

	if _, err := m.AdaptIncremental(phaseB[0], 2); err != nil {
		t.Fatal(err)
	}
	if n := readyTargets(m.Snapshot()); n != 2 {
		t.Fatalf("after fold into spawned target snapshot has %d ready targets, want 2", n)
	}
	infos = m.Snapshot().Targets()
	if len(infos) != 2 || infos[0].Name != "t0" || infos[1].Name != "t1" ||
		infos[0].Active || !infos[1].Active || !infos[1].Ready {
		t.Fatalf("after second fold Targets() = %+v, want ready t0 + active ready t1", infos)
	}
	// The multi-target vote must produce finite scores for trained classes
	// and classify every in-distribution query.
	for _, q := range queries {
		for c, s := range scoresOf(t, m, q) {
			if s != s || s < -1.5 {
				t.Fatalf("multi-target score[%d] = %v for a trained class", c, s)
			}
		}
	}
}

// TestSourceVoteIgnoresStaleScratch pins the source vote against scoring
// scratch left behind by a multi-target vote. With more targets than source
// domains the pooled weights buffer is longer than the source vote needs;
// the vote must read only its own slots, so a dirtied scratch and a fresh
// one give bit-identical scores.
func TestSourceVoteIgnoresStaleScratch(t *testing.T) {
	m, queries, phaseA, phaseB := targetFixture(t, 81)
	if _, err := m.AdaptIncremental(phaseA[0], 2); err != nil {
		t.Fatal(err)
	}
	for _, batch := range phaseB[:2] {
		if _, _, err := m.SpawnTarget("", 0, false); err != nil {
			t.Fatal(err)
		}
		if _, err := m.AdaptIncremental(batch, 2); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Snapshot()
	if len(s.targets) != 3 || len(s.domains) != 2 {
		t.Fatalf("fixture has %d targets over %d sources, want 3 over 2", len(s.targets), len(s.domains))
	}
	classes := s.cfg.Classes
	scratch := func() *scoreScratch {
		return &scoreScratch{
			scores:  make([]float64, classes),
			total:   make([]float64, classes),
			wsum:    make([]float64, classes),
			weights: make([]float64, len(s.targets)),
		}
	}
	for i, q := range queries {
		fresh, dirty := scratch(), scratch()
		voteInto(s.tgtMat, s.targets, queries[(i+1)%len(queries)], dirty.total, dirty)
		want, got := make([]float64, classes), make([]float64, classes)
		voteInto(s.domMat, s.domains, q, want, fresh)
		voteInto(s.domMat, s.domains, q, got, dirty)
		if !floatsEqual(got, want) {
			t.Fatalf("query %d: source vote after a target vote = %v, on fresh scratch = %v", i, got, want)
		}
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSpawnTargetValidation(t *testing.T) {
	m, err := New(testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SpawnTarget("x", 0, false); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("SpawnTarget before Train err = %v, want ErrNotTrained", err)
	}
	m, _, phaseA, _ := targetFixture(t, 72)
	if _, err := m.AdaptIncremental(phaseA[0], 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SpawnTarget(strings.Repeat("x", maxTargetName+1), 0, false); !errors.Is(err, ErrInvalidTargets) {
		t.Fatalf("oversized name err = %v, want ErrInvalidTargets", err)
	}
	if _, _, err := m.SpawnTarget("t0", 0, false); !errors.Is(err, ErrInvalidTargets) {
		t.Fatalf("duplicate name err = %v, want ErrInvalidTargets", err)
	}
}

// TestRollbackRestoresBytes is the rollback acceptance contract: the export
// after a rollback is byte-identical to the export taken right before the
// spawn that checkpointed it, and rollback is idempotent.
func TestRollbackRestoresBytes(t *testing.T) {
	m, queries, phaseA, phaseB := targetFixture(t, 73)
	if err := func() error { _, err := m.AdaptIncremental(phaseA[0], 2); return err }(); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().HasCheckpoint() {
		t.Fatal("HasCheckpoint true before any spawn/retire")
	}
	if err := m.Rollback(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Rollback with no checkpoint err = %v, want ErrNoCheckpoint", err)
	}
	preSpawn := marshalEnsemble(t, m)
	preScores := scoresOf(t, m, queries[0])

	if _, _, err := m.SpawnTarget("", 0, false); err != nil {
		t.Fatal(err)
	}
	if !m.Snapshot().HasCheckpoint() {
		t.Fatal("spawn did not checkpoint")
	}
	if _, err := m.AdaptIncremental(phaseB[0], 2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(preSpawn, marshalEnsemble(t, m)) {
		t.Fatal("folding into the spawned target did not change the export — the drift fold is a no-op")
	}

	for round := range 2 { // second round proves idempotence
		if err := m.Rollback(); err != nil {
			t.Fatalf("rollback round %d: %v", round, err)
		}
		if got := marshalEnsemble(t, m); !bytes.Equal(preSpawn, got) {
			t.Fatalf("rollback round %d: export not byte-identical to the pre-spawn export (%d vs %d bytes)",
				round, len(got), len(preSpawn))
		}
		if got := scoresOf(t, m, queries[0]); !floatsEqual(got, preScores) {
			t.Fatalf("rollback round %d: served scores %v, want pre-spawn %v", round, got, preScores)
		}
	}
}

// TestRetireLRU pins spawn-with-retirement: past MaxTargets the
// least-recently-folded non-active target leaves, and the spawn stays the
// fold destination.
func TestRetireLRU(t *testing.T) {
	m, _, phaseA, phaseB := targetFixture(t, 74)
	if _, err := m.AdaptIncremental(phaseA[0], 2); err != nil { // t0
		t.Fatal(err)
	}
	if _, _, err := m.SpawnTarget("", 0, false); err != nil { // t1
		t.Fatal(err)
	}
	if _, err := m.AdaptIncremental(phaseB[0], 2); err != nil {
		t.Fatal(err)
	}
	spawned, retired, err := m.SpawnTarget("", 2, true) // t2 pushes past MaxTargets=2
	if err != nil {
		t.Fatal(err)
	}
	if spawned != "t2" || retired != "t0" {
		t.Fatalf("SpawnTarget = (%q, %q), want t2 spawned and LRU t0 retired", spawned, retired)
	}
	if _, err := m.AdaptIncremental(phaseB[1], 2); err != nil {
		t.Fatal(err)
	}
	infos := m.Snapshot().Targets()
	if len(infos) != 2 || infos[0].Name != "t1" || infos[1].Name != "t2" || !infos[1].Active || infos[1].Folds != 1 {
		t.Fatalf("targets after LRU retirement = %+v, want t1 and the active spawn t2 with its one fold", infos)
	}
}

// TestMultiTargetPersistSME3 pins the SME3 codec: a multi-target (or
// non-default-named) state promotes the magic, survives save→load with
// identical predictions and target books, and stays canonical.
func TestMultiTargetPersistSME3(t *testing.T) {
	m, queries, phaseA, phaseB := targetFixture(t, 75)
	if _, err := m.AdaptIncremental(phaseA[0], 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SpawnTarget("shift-1", 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AdaptIncremental(phaseB[0], 2); err != nil {
		t.Fatal(err)
	}
	raw := marshalEnsemble(t, m)
	if got := string(raw[:4]); got != ensembleMagicV3 {
		t.Fatalf("multi-target magic %q, want %q", got, ensembleMagicV3)
	}
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	wantInfos, gotInfos := m.Snapshot().Targets(), got.Snapshot().Targets()
	if len(gotInfos) != len(wantInfos) {
		t.Fatalf("loaded %d targets, want %d", len(gotInfos), len(wantInfos))
	}
	for i := range wantInfos {
		if gotInfos[i] != wantInfos[i] {
			t.Fatalf("target %d books diverged after load: %+v vs %+v", i, gotInfos[i], wantInfos[i])
		}
	}
	for i, q := range queries {
		if a, b := m.Snapshot().Predict(q), got.Snapshot().Predict(q); a != b {
			t.Fatalf("query %d: original predicts %d, loaded predicts %d", i, a, b)
		}
	}
	if !bytes.Equal(raw, marshalEnsemble(t, got)) {
		t.Fatal("SME3 load→save is not byte-identical: the codec is not canonical")
	}

	// A custom-named single target is not the legacy shape either.
	m2, _, pa, _ := targetFixture(t, 76)
	if _, _, err := m2.SpawnTarget("custom", 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.AdaptIncremental(pa[0], 2); err != nil {
		t.Fatal(err)
	}
	if raw := marshalEnsemble(t, m2); string(raw[:4]) != ensembleMagicV3 {
		t.Fatalf("custom-named single target serialized as %q, want SME3", raw[:4])
	}

	// The default single-target shape must keep the legacy SME1 magic even
	// after the target machinery has churned (spawn + rollback).
	m3, _, pa3, _ := targetFixture(t, 77)
	if _, err := m3.AdaptIncremental(pa3[0], 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m3.SpawnTarget("", 0, false); err != nil {
		t.Fatal(err)
	}
	if err := m3.Rollback(); err != nil {
		t.Fatal(err)
	}
	if raw := marshalEnsemble(t, m3); string(raw[:4]) != ensembleMagic {
		t.Fatalf("post-rollback default shape serialized as %q, want SME1", raw[:4])
	}
}

func TestBatchSimilarity(t *testing.T) {
	m, _, phaseA, phaseB := targetFixture(t, 78)
	if _, ok, err := m.BatchSimilarity(phaseA[0]); err != nil || ok {
		t.Fatalf("BatchSimilarity before any target = (ok=%v, err=%v), want not-ok", ok, err)
	}
	if _, err := m.AdaptIncremental(phaseA[0], 2); err != nil {
		t.Fatal(err)
	}
	simA, ok, err := m.BatchSimilarity(phaseA[1])
	if err != nil || !ok {
		t.Fatalf("BatchSimilarity(in-distribution) = (ok=%v, err=%v)", ok, err)
	}
	simB, ok, err := m.BatchSimilarity(phaseB[0])
	if err != nil || !ok {
		t.Fatalf("BatchSimilarity(shifted) = (ok=%v, err=%v)", ok, err)
	}
	if simA <= simB {
		t.Fatalf("in-distribution similarity %.4f not above shifted %.4f — the drift signal is dead", simA, simB)
	}
	if _, _, err := m.BatchSimilarity(nil); !errors.Is(err, ErrInvalidTargets) {
		t.Fatalf("empty batch err = %v, want ErrInvalidTargets", err)
	}
	if _, _, err := m.BatchSimilarity([]hdc.Vector{hdc.New(64)}); !errors.Is(err, ErrInvalidTargets) {
		t.Fatalf("dim-mismatch err = %v, want ErrInvalidTargets", err)
	}
}

// TestConcurrentPredictsAcrossSpawnFoldRollback extends the torn-snapshot
// -race test across the drift lifecycle: lock-free ScoreInto calls racing a
// spawn→fold→fold→rollback→fold sequence must only ever observe exact
// published versions, which are precomputed on a byte-identical replica
// driven through the same sequence serially.
func TestConcurrentPredictsAcrossSpawnFoldRollback(t *testing.T) {
	m, queries, phaseA, phaseB := targetFixture(t, 79)
	probe := queries[0]
	classes := m.Config().Classes
	replica, err := Decode(bytes.NewReader(marshalEnsemble(t, m)))
	if err != nil {
		t.Fatal(err)
	}

	type step func(*Ensemble) error
	fold := func(batch []hdc.Vector) step {
		return func(e *Ensemble) error { _, err := e.AdaptIncremental(batch, 2); return err }
	}
	sequence := []step{
		fold(phaseA[0]),
		func(e *Ensemble) error { _, _, err := e.SpawnTarget("", 0, false); return err },
		fold(phaseB[0]),
		fold(phaseB[1]),
		func(e *Ensemble) error { return e.Rollback() },
		fold(phaseA[1]),
	}

	var expected [][]float64
	record := func(e *Ensemble) {
		scores := make([]float64, classes)
		if err := e.Snapshot().ScoreInto(probe, scores); err != nil {
			t.Fatal(err)
		}
		expected = append(expected, scores)
	}
	record(replica)
	for _, s := range sequence {
		if err := s(replica); err != nil {
			t.Fatal(err)
		}
		record(replica)
	}

	matches := func(scores []float64) bool {
		for _, want := range expected {
			if floatsEqual(scores, want) {
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
	for range 4 {
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
				if err := m.Snapshot().ScoreInto(probe, scores); err != nil {
					report(err.Error())
					return
				}
				if !matches(scores) {
					report("ScoreInto saw a vector matching no published version across spawn/fold/rollback (torn snapshot?)")
					return
				}
			}
		}()
	}
	for _, s := range sequence {
		if err := s(m); err != nil {
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
	final := scoresOf(t, m, probe)
	if !floatsEqual(final, expected[len(expected)-1]) {
		t.Fatalf("final scores %v, want replica's %v", final, expected[len(expected)-1])
	}
}

// TestRetireNeverDropsInFlightFolds races concurrent incremental folds
// against target spawns, half of which retire the LRU target: every fold
// must either land in the target it addressed or the new destination —
// never error, never vanish into a half-removed target.
func TestRetireNeverDropsInFlightFolds(t *testing.T) {
	m, _, phaseA, phaseB := targetFixture(t, 80)
	if _, err := m.AdaptIncremental(phaseA[0], 2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	const folders, foldsEach = 4, 6
	for w := range folders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range foldsEach {
				batch := phaseB[(w+i)%len(phaseB)]
				if _, err := m.AdaptIncremental(batch, 1); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for i := range 6 {
		if _, _, err := m.SpawnTarget("", 3, i%2 == 1); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent fold failed during spawn/retire churn: %v", err)
	}
	total := int64(0)
	for _, ti := range m.Snapshot().Targets() {
		total += ti.Folds
	}
	if total == 0 {
		t.Fatal("no folds survived the spawn/retire churn")
	}
	// The surviving state must still round-trip canonically.
	raw := marshalEnsemble(t, m)
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, marshalEnsemble(t, got)) {
		t.Fatal("post-churn state does not round-trip canonically")
	}
}

// fuzzEnsemble builds a tiny trained ensemble for fuzz seeds.
func fuzzEnsemble(f *testing.F, targets int) []byte {
	f.Helper()
	const dim = 64
	rng := testRNG(0xfe)
	m, err := New(Config{Dim: dim, Classes: 2, RetrainEpochs: 0, AdaptEpochs: 1, Confidence: 0.005, AdaptRate: 2})
	if err != nil {
		f.Fatal(err)
	}
	var samples []Sample
	for c := range 2 {
		for range 4 {
			samples = append(samples, Sample{HV: hdc.Random(rng, dim), Class: c, Domain: 0})
		}
	}
	if err := m.Train(samples); err != nil {
		f.Fatal(err)
	}
	batch := []hdc.Vector{hdc.Random(rng, dim), hdc.Random(rng, dim)}
	for i := range targets {
		if i > 0 {
			if _, _, err := m.SpawnTarget("", 0, false); err != nil {
				f.Fatal(err)
			}
		}
		if _, err := m.AdaptIncremental(batch, 1); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzEnsembleReadFrom drives the versioned codec (SME1/SME2/SME3 headers,
// target counts, name frames, accumulator frames) with corrupt and
// truncated inputs: parsing must never panic, and anything that parses must
// re-encode canonically (encode→decode→encode is a fixed point).
func FuzzEnsembleReadFrom(f *testing.F) {
	sme1 := fuzzEnsemble(f, 1)
	sme3 := fuzzEnsemble(f, 3)
	f.Add(sme1)
	f.Add(fuzzEnsemble(f, 0))
	f.Add(sme3)
	// Corrupt target count in the SME3 header (magic + config + strategy
	// names "margin"+"constant"+"bundle" + domain count).
	tcOff := 4 + 16 + 24 + (4 + 6) + (4 + 8) + (4 + 6) + 4
	corrupt := bytes.Clone(sme3)
	binary.LittleEndian.PutUint32(corrupt[tcOff:], 1<<30)
	f.Add(corrupt)
	corrupt = bytes.Clone(sme3)
	binary.LittleEndian.PutUint32(corrupt[tcOff+4:], 17) // active outside target count
	f.Add(corrupt)
	f.Add(sme3[:len(sme3)-7]) // truncated target record
	f.Add(sme1[:50])
	f.Add([]byte("SME3"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b1 bytes.Buffer
		if _, err := m.WriteTo(&b1); err != nil {
			t.Fatalf("re-encode of a successfully decoded ensemble failed: %v", err)
		}
		m2, err := Decode(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("decode of a re-encoded ensemble failed: %v", err)
		}
		var b2 bytes.Buffer
		if _, err := m2.WriteTo(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("codec not canonical: %d vs %d bytes", b1.Len(), b2.Len())
		}
	})
}
