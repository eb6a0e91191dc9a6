package stream

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/model"
)

func TestParseDriftPolicy(t *testing.T) {
	tests := []struct {
		spec   string
		name   string
		retire bool
		ok     bool
	}{
		{"", "none", false, true},
		{"none", "none", false, true},
		{"spawn", "spawn", false, true},
		{"spawn:0.25", "spawn", false, true},
		{"spawn+retire", "spawn+retire", true, true},
		{"spawn+retire:0.05", "spawn+retire", true, true},
		{"nope", "", false, false},
		{"spawn:2", "", false, false},
		{"spawn:x", "", false, false},
		{"none:0.1", "", false, false},
	}
	for _, tt := range tests {
		p, err := ParseDriftPolicy(tt.spec)
		if !tt.ok {
			if !errors.Is(err, ErrUnknownDriftPolicy) {
				t.Errorf("spec %q: err = %v, want ErrUnknownDriftPolicy", tt.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("spec %q: %v", tt.spec, err)
			continue
		}
		if p.Name() != tt.name || p.Retire != tt.retire {
			t.Errorf("spec %q parsed to (%s, retire=%v), want (%s, retire=%v)",
				tt.spec, p.Name(), p.Retire, tt.name, tt.retire)
		}
	}
	// A custom threshold must change the decision.
	loose, _ := ParseDriftPolicy("spawn:0.5")
	tight, _ := ParseDriftPolicy("spawn:0.01")
	if loose.shouldSpawn(0.8, 0.7, 10) {
		t.Error("spawn:0.5 fired on a 0.1 similarity drop")
	}
	if !tight.shouldSpawn(0.8, 0.7, 10) {
		t.Error("spawn:0.01 did not fire on a 0.1 similarity drop")
	}
}

func TestDriftStateObserve(t *testing.T) {
	p := DriftPolicy{Spawn: true} // defaults: threshold 0.1, min folds 2
	var d driftState
	if d.observe(p, 0.6) {
		t.Fatal("first observation spawned with an uninitialized EMA")
	}
	if !d.emaInit || d.ema != 0.6 {
		t.Fatalf("EMA after first observation = (%v, %v), want initialized to 0.6", d.ema, d.emaInit)
	}
	d.folds = 1 // below minFoldsBeforeSpawn: even a cliff must not spawn yet
	if d.observe(p, 0.1) {
		t.Fatal("spawned before minFoldsBeforeSpawn folds")
	}
	d = driftState{ema: 0.6, emaInit: true, folds: 5}
	if d.observe(p, 0.55) {
		t.Fatal("spawned on an in-threshold wobble")
	}
	wobbled := d.ema
	if wobbled >= 0.6 || wobbled <= 0.55 {
		t.Fatalf("EMA %v not between the old value and the new sample", wobbled)
	}
	if !d.observe(p, wobbled-0.2) {
		t.Fatal("did not spawn on a clear similarity cliff")
	}
	if d.emaInit || d.folds != 0 {
		t.Fatalf("trajectory not reset after spawn decision: %+v", d)
	}
}

// driftModel is a scripted Sim/Spawn pair: similarities come from a fixed
// per-batch schedule, and spawns are recorded.
type driftModel struct {
	mu      sync.Mutex
	sims    []float64
	next    int
	hasTgt  bool
	spawns  []int // MaxTargets value seen per spawn
	retires []bool
	live    int
}

func (m *driftModel) sim([]hdc.Vector) (float64, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.hasTgt {
		return 0, false, nil
	}
	s := m.sims[min(m.next, len(m.sims)-1)]
	m.next++
	return s, true, nil
}

func (m *driftModel) spawn(maxTargets int, retire bool) (string, string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spawns = append(m.spawns, maxTargets)
	m.retires = append(m.retires, retire)
	m.live++
	retired := ""
	if retire && m.live > maxTargets {
		m.live--
		retired = "lru"
	}
	return "t9", retired, nil
}

func (m *driftModel) fold([]hdc.Vector) (model.AdaptStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hasTgt = true
	return model.AdaptStats{}, nil
}

// TestWorkerSpawnsOnDrift drives the adapter worker over a scripted
// similarity cliff and checks the whole drift loop: EMA tracking, the spawn
// decision, MaxTargets/retire plumbed through to the SpawnFunc, the
// trajectory reset, and the cumulative counters.
func TestWorkerSpawnsOnDrift(t *testing.T) {
	dm := &driftModel{
		// Batch 1 has no target yet; batches 2-4 sit at 0.6; batch 5 is
		// the cliff; batches 6+ track the new target at 0.55.
		sims: []float64{0.6, 0.6, 0.6, 0.2, 0.55, 0.55},
	}
	a := New(Config{
		MaxBatch: 1, Policy: DriftPolicy{Spawn: true}, MaxTargets: 3,
		Sim: dm.sim, Spawn: dm.spawn,
	}, passthroughEncode, dm.fold)
	for i := range 7 {
		if _, err := a.Enqueue([][][]float64{fakeWindow(i + 1)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.TargetsSpawned != 1 {
		t.Fatalf("TargetsSpawned = %d, want exactly 1 (stats: %+v)", st.TargetsSpawned, st)
	}
	if st.TargetsRetired != 0 {
		t.Fatalf("TargetsRetired = %d under a non-retiring policy", st.TargetsRetired)
	}
	if len(dm.spawns) != 1 || dm.spawns[0] != 3 || dm.retires[0] {
		t.Fatalf("SpawnFunc saw (maxTargets=%v, retire=%v), want (3, false)", dm.spawns, dm.retires)
	}
	if st.DriftPolicy != "spawn" {
		t.Fatalf("DriftPolicy = %q, want spawn", st.DriftPolicy)
	}
	// The trajectory restarted on the new target: the drifted batch plus
	// two follow-ups folded into it, and the EMA re-seeded from the
	// post-spawn similarities.
	if !st.SimilarityValid || st.SimilarityEMA < 0.5 {
		t.Fatalf("post-spawn EMA = (%v, valid=%v), want re-seeded near 0.55", st.SimilarityEMA, st.SimilarityValid)
	}
	if st.FoldsOnTarget != 3 {
		t.Fatalf("FoldsOnTarget = %d, want 3 post-spawn folds", st.FoldsOnTarget)
	}
	if st.WindowsFolded != 7 {
		t.Fatalf("WindowsFolded = %d, want all 7 (a spawn must not drop the drifted batch)", st.WindowsFolded)
	}
}

// TestWorkerRetiresPastMaxTargets pins the retiring policy: the SpawnFunc
// is asked to retire and a reported retirement is counted.
func TestWorkerRetiresPastMaxTargets(t *testing.T) {
	dm := &driftModel{
		live: 1, // the implicit first target
		sims: []float64{0.6, 0.6, 0.6, 0.2, 0.6, 0.6, 0.6, 0.2, 0.55},
	}
	a := New(Config{
		MaxBatch: 1, Policy: DriftPolicy{Spawn: true, Retire: true}, MaxTargets: 2,
		Sim: dm.sim, Spawn: dm.spawn,
	}, passthroughEncode, dm.fold)
	for i := range 10 {
		if _, err := a.Enqueue([][][]float64{fakeWindow(i + 1)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.TargetsSpawned != 2 {
		t.Fatalf("TargetsSpawned = %d, want 2 (stats: %+v)", st.TargetsSpawned, st)
	}
	if st.TargetsRetired != 1 {
		t.Fatalf("TargetsRetired = %d, want 1: the second spawn pushes past MaxTargets=2", st.TargetsRetired)
	}
	for i, r := range dm.retires {
		if !r {
			t.Fatalf("spawn %d was not asked to retire under spawn+retire", i)
		}
	}
}

// TestNonePolicyTracksButNeverSpawns pins that the default policy keeps the
// observability signal (EMA gauge) without ever opening a target.
func TestNonePolicyTracksButNeverSpawns(t *testing.T) {
	dm := &driftModel{sims: []float64{0.6, 0.6, 0.1, 0.1, 0.1}}
	a := New(Config{MaxBatch: 1, Sim: dm.sim, Spawn: dm.spawn}, passthroughEncode, dm.fold)
	for i := range 6 {
		if _, err := a.Enqueue([][][]float64{fakeWindow(i + 1)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.TargetsSpawned != 0 || len(dm.spawns) != 0 {
		t.Fatalf("none policy spawned: %+v", st)
	}
	if st.DriftPolicy != "none" {
		t.Fatalf("DriftPolicy = %q, want none", st.DriftPolicy)
	}
	if !st.SimilarityValid {
		t.Fatal("none policy lost the similarity EMA gauge")
	}
}

// TestResetDriftClearsTrajectoryKeepsHistory pins the rollback contract on
// the adapter side: the EMA and folds-on-target reset, cumulative
// spawn/retire counters survive.
func TestResetDriftClearsTrajectoryKeepsHistory(t *testing.T) {
	dm := &driftModel{sims: []float64{0.6, 0.6, 0.6, 0.2, 0.55}}
	a := New(Config{
		MaxBatch: 1, Policy: DriftPolicy{Spawn: true}, Sim: dm.sim, Spawn: dm.spawn,
	}, passthroughEncode, dm.fold)
	for i := range 6 {
		if _, err := a.Enqueue([][][]float64{fakeWindow(i + 1)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Close(ctx); err != nil {
		t.Fatal(err)
	}
	before := a.Stats()
	if before.TargetsSpawned != 1 || !before.SimilarityValid {
		t.Fatalf("fixture did not reach a spawned+tracking state: %+v", before)
	}
	a.ResetDrift()
	after := a.Stats()
	if after.SimilarityValid || after.SimilarityEMA != 0 || after.FoldsOnTarget != 0 {
		t.Fatalf("ResetDrift left trajectory state: %+v", after)
	}
	if after.TargetsSpawned != before.TargetsSpawned || after.WindowsFolded != before.WindowsFolded {
		t.Fatalf("ResetDrift clobbered cumulative history: %+v vs %+v", after, before)
	}
}
