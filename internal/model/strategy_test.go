package model

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"go-arxiv/smore/internal/hdc"
)

// allStrategyCombos enumerates every registered confidence × update
// combination.
func allStrategyCombos(t *testing.T) []Strategy {
	t.Helper()
	var out []Strategy
	for _, c := range ConfidenceRuleNames() {
		for _, u := range UpdateRuleNames() {
			strat, err := ParseStrategy(c, fixedSchedule, u)
			if err != nil {
				t.Fatalf("ParseStrategy(%s,%s,%s): %v", c, fixedSchedule, u, err)
			}
			out = append(out, strat)
		}
	}
	return out
}

func TestStrategyParse(t *testing.T) {
	def, err := ParseStrategySpec("")
	if err != nil {
		t.Fatal(err)
	}
	if !def.isDefault() {
		t.Fatalf("empty spec parsed to %v, want default", def)
	}
	if got := def.String(); got != "margin+constant+bundle" {
		t.Fatalf("default String() = %q", got)
	}
	// Every combo's String() must round-trip through ParseStrategySpec.
	for _, strat := range allStrategyCombos(t) {
		back, err := ParseStrategySpec(strat.String())
		if err != nil {
			t.Fatalf("spec %q did not parse back: %v", strat.String(), err)
		}
		if back.String() != strat.String() {
			t.Fatalf("spec round-trip %q -> %q", strat.String(), back.String())
		}
	}
	for _, spec := range []string{"margin", "a+b", "margin+constant+nope", "x+constant+bundle", "margin+x+bundle", "margin+anneal+bundle"} {
		if _, err := ParseStrategySpec(spec); !errors.Is(err, ErrUnknownStrategy) {
			t.Errorf("spec %q: err = %v, want ErrUnknownStrategy", spec, err)
		}
	}
	// Empty piece names select the default piece.
	s, err := ParseStrategy("", "", "")
	if err != nil || !s.isDefault() {
		t.Fatalf("ParseStrategy of empties = %v, %v, want default", s, err)
	}
}

// TestStrategyCombosDeterministicAcrossWorkers is the strategy-API
// determinism contract: for EVERY confidence/update combination,
// adapting identically trained ensembles with worker counts 1..64 must end
// with byte-identical target prototypes and equal stats. Run under -race in
// CI.
func TestStrategyCombosDeterministicAcrossWorkers(t *testing.T) {
	build := func(strat Strategy) (*Ensemble, []hdc.Vector) {
		rng := testRNG(31)
		protos, samples := cluster(rng, 4, 20, testDim/3, 0)
		m, err := New(testModelConfig())
		if err != nil {
			t.Fatal(err)
		}
		m.SetStrategy(strat)
		if err := m.Train(samples); err != nil {
			t.Fatal(err)
		}
		var targets []hdc.Vector
		for c := range 4 {
			for range 15 {
				targets = append(targets, flip(rng, protos[c], testDim/3))
			}
		}
		return m, targets
	}

	for _, strat := range allStrategyCombos(t) {
		t.Run(strat.String(), func(t *testing.T) {
			ref, targets := build(strat)
			refStats, err := ref.AdaptBatch(targets, 1)
			if err != nil {
				t.Fatal(err)
			}
			if refStats.PseudoLabels == 0 {
				t.Fatalf("strategy %s accepted no pseudo-labels on separable targets", strat)
			}
			refProt := ref.Snapshot().AdaptedPrototypes()
			for _, workers := range []int{4, 64} {
				m, targets := build(strat)
				stats, err := m.AdaptBatch(targets, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if stats != refStats {
					t.Fatalf("workers=%d: stats %+v differ from workers=1 %+v", workers, stats, refStats)
				}
				prot := m.Snapshot().AdaptedPrototypes()
				for c := range prot {
					a, err1 := prot[c].MarshalBinary()
					b, err2 := refProt[c].MarshalBinary()
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					if !bytes.Equal(a, b) {
						t.Fatalf("workers=%d: class %d prototype not byte-identical to workers=1", workers, c)
					}
				}
			}
		})
	}
}

// TestStrategyPersistRoundTrip pins the versioned codec per strategy: the
// default serializes in the legacy "SME1" layout, every other combination
// promotes to "SME2", and in both cases the strategy choice plus the model
// state survive save→load→save canonically.
func TestStrategyPersistRoundTrip(t *testing.T) {
	for _, strat := range allStrategyCombos(t) {
		t.Run(strat.String(), func(t *testing.T) {
			m, queries := trainedEnsemble(t, 53, false)
			m.SetStrategy(strat)
			raw := marshalEnsemble(t, m)
			wantMagic := ensembleMagicV2
			if strat.isDefault() {
				wantMagic = ensembleMagic
			}
			if got := string(raw[:4]); got != wantMagic {
				t.Fatalf("magic %q, want %q for strategy %s", got, wantMagic, strat)
			}
			got, err := Decode(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if got.Snapshot().Strategy().String() != strat.String() {
				t.Fatalf("loaded strategy %s, want %s", got.Snapshot().Strategy(), strat)
			}
			for i, q := range queries {
				if a, b := m.Snapshot().Predict(q), got.Snapshot().Predict(q); a != b {
					t.Fatalf("query %d: original predicts %d, loaded predicts %d", i, a, b)
				}
			}
			if !bytes.Equal(raw, marshalEnsemble(t, got)) {
				t.Fatal("load→save is not byte-identical: the codec is not canonical")
			}
			// Persistence must be transparent to the strategy-driven loop:
			// adapting the loaded replica must match adapting the original.
			var targets []hdc.Vector
			rng := testRNG(99)
			protos, _ := cluster(testRNG(53), 4, 1, 0, 0)
			for c := range 4 {
				for range 10 {
					targets = append(targets, flip(rng, protos[c], testDim/3))
				}
			}
			s1, err1 := m.AdaptBatch(targets, 0)
			s2, err2 := got.AdaptBatch(targets, 0)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if s1 != s2 {
				t.Fatalf("adapt stats diverged after reload: %+v vs %+v", s1, s2)
			}
			if !bytes.Equal(marshalEnsemble(t, m), marshalEnsemble(t, got)) {
				t.Fatal("adapted state diverged after reload")
			}
		})
	}
}

// TestAdaptIncrementalWithReturnsItsFold pins that a fold reports itself:
// the snapshot it returns names the strategy it ran under and its version
// even after a later SetStrategy, and a call whose inputs fail their checks
// installs no strategy.
func TestAdaptIncrementalWithReturnsItsFold(t *testing.T) {
	m, queries := trainedEnsemble(t, 55, false)
	ema := Strategy{Confidence: EntropyCalConfidence{}, Update: EMAUpdate{}}
	if _, _, err := m.AdaptIncrementalWith(&ema, nil, 1); !errors.Is(err, ErrInvalidTargets) {
		t.Fatalf("empty batch err = %v, want ErrInvalidTargets", err)
	}
	if got := m.Snapshot().Strategy().String(); got != DefaultStrategy().String() {
		t.Fatalf("a rejected fold installed %s", got)
	}
	_, s, err := m.AdaptIncrementalWith(&ema, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s != m.Snapshot() || !s.Adapted() {
		t.Fatal("AdaptIncrementalWith did not return the adapted snapshot it published")
	}
	version := s.Version()
	m.SetStrategy(DefaultStrategy())
	if got := s.Strategy().String(); got != ema.String() || s.Version() != version {
		t.Fatalf("after a later SetStrategy the fold's snapshot names %s at version %d, want %s at %d",
			got, s.Version(), ema, version)
	}

	// Concurrent folds that select different strategies each get back the
	// snapshot of their own fold, while readers load the published one.
	var wg sync.WaitGroup
	for _, strat := range []Strategy{ema, DefaultStrategy()} {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for range 4 {
				_, s, err := m.AdaptIncrementalWith(&strat, queries, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if got := s.Strategy().String(); got != strat.String() {
					t.Errorf("a fold under %s returned a snapshot naming %s", strat, got)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for range 4 {
				m.SetStrategy(strat)
				_ = m.Snapshot().Strategy().String()
			}
		}()
	}
	wg.Wait()
}

// TestStrategyCorruptNames pins the decode-side validation of the SME2
// strategy section, including a schedule slot that names the deleted
// "anneal" schedule.
func TestStrategyCorruptNames(t *testing.T) {
	m, _ := trainedEnsemble(t, 54, false)
	strat, err := ParseStrategy("entropy-cal", "constant", "ema")
	if err != nil {
		t.Fatal(err)
	}
	m.SetStrategy(strat)
	raw := marshalEnsemble(t, m)
	if string(raw[:4]) != ensembleMagicV2 {
		t.Fatalf("magic %q, want SME2", raw[:4])
	}
	// The first strategy name starts after magic(4) + config(4*4+3*8).
	nameOff := 4 + 16 + 24
	corrupt := func(mutate func(b []byte)) error {
		b := bytes.Clone(raw)
		mutate(b)
		_, err := Decode(bytes.NewReader(b))
		return err
	}
	if err := corrupt(func(b []byte) { b[nameOff] = 0xff }); err == nil {
		t.Error("oversized strategy-name length accepted")
	}
	if err := corrupt(func(b []byte) { b[nameOff+4] ^= 0xff }); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("garbled strategy name: err = %v, want ErrUnknownStrategy", err)
	}
	anneal := bytes.Replace(raw, []byte("\x08\x00\x00\x00constant"), []byte("\x06\x00\x00\x00anneal"), 1)
	if bytes.Equal(anneal, raw) {
		t.Fatal("SME2 blob has no constant schedule slot")
	}
	if _, err := Decode(bytes.NewReader(anneal)); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("anneal schedule slot: err = %v, want ErrUnknownStrategy", err)
	}
}

// TestEntropyCalAcceptsSaneFraction pins the calibration contract of the
// entropy-cal confidence rule: at the default margin-tuned threshold it must
// accept a sane fraction of pseudo-labels — on the margin rule's scale, and
// not every sample of a noisy stream either.
func TestEntropyCalAcceptsSaneFraction(t *testing.T) {
	run := func(rule string) (AdaptStats, int) {
		rng := testRNG(47)
		protos, samples := cluster(rng, 4, 20, testDim/3, 0)
		m, err := New(testModelConfig())
		if err != nil {
			t.Fatal(err)
		}
		strat, err := ParseStrategy(rule, "", "")
		if err != nil {
			t.Fatal(err)
		}
		m.SetStrategy(strat)
		if err := m.Train(samples); err != nil {
			t.Fatal(err)
		}
		var targets []hdc.Vector
		for c := range 4 {
			for range 15 {
				// Heavier noise than the separable combo test: 2/5 of the
				// bits flipped leaves genuinely ambiguous samples for the
				// confidence gate to reject.
				targets = append(targets, flip(rng, protos[c], 2*testDim/5))
			}
		}
		stats, err := m.AdaptBatch(targets, 0)
		if err != nil {
			t.Fatal(err)
		}
		return stats, len(targets) * stats.Epochs
	}
	cal, calSeen := run("entropy-cal")
	margin, _ := run("margin")
	calFrac := float64(cal.PseudoLabels) / float64(calSeen)
	if calFrac < 0.1 {
		t.Fatalf("entropy-cal accepted %d/%d (%.1f%%) pseudo-labels at the default threshold — still starved",
			cal.PseudoLabels, calSeen, 100*calFrac)
	}
	if lo, hi := margin.PseudoLabels/2, margin.PseudoLabels*2; cal.PseudoLabels < lo || cal.PseudoLabels > hi {
		t.Fatalf("entropy-cal accepted %d pseudo-labels, margin %d — not on the margin-calibrated scale",
			cal.PseudoLabels, margin.PseudoLabels)
	}

	// The calibration contract in the small: two classes reduce exactly to
	// the margin rule, an uninformative all-equal vector scores 0, and a
	// peaked vector beats a uniform one.
	rule := EntropyCalConfidence{}
	if class, conf, _ := rule.Assess([]float64{0.31, 0.28}); class != 0 || math.Abs(conf-0.03) > 1e-12 {
		t.Fatalf("two-class Assess = (%d, %v), want the margin (0, 0.03)", class, conf)
	}
	if _, conf, _ := rule.Assess([]float64{0.2, 0.2, 0.2, 0.2}); conf != 0 {
		t.Fatalf("all-equal Assess conf = %v, want exactly 0", conf)
	}
	class, peaked, _ := rule.Assess([]float64{0.9, -0.8, -0.9, -0.85})
	if _, flat, _ := rule.Assess([]float64{0.01, 0.01, 0.01, 0.01}); class != 0 || !(peaked > flat) {
		t.Fatalf("peaked Assess = (%d, %v), want class 0 above the uniform conf %v", class, peaked, flat)
	}
	if class, conf, _ := rule.Assess([]float64{0.3, math.Inf(-1), 0.1, math.NaN()}); class != 0 || !(conf > 0) {
		t.Fatalf("Assess with -Inf/NaN slots = (%d, %v), want class 0 with positive confidence", class, conf)
	}
}

// TestEMAUpdateBoundsPrototypeMass pins the semantic difference of the EMA
// update: under momentum μ the class accumulators are geometric sums, so
// repeated adaptation cannot grow them without bound the way permanent
// bundling does.
func TestEMAUpdateBoundsPrototypeMass(t *testing.T) {
	ema, err := ParseStrategySpec("margin+constant+ema")
	if err != nil {
		t.Fatal(err)
	}
	build := func(strat Strategy) (*Ensemble, []hdc.Vector) {
		rng := testRNG(61)
		protos, samples := cluster(rng, 4, 20, testDim/3, 0)
		m, errN := New(testModelConfig())
		if errN != nil {
			t.Fatal(errN)
		}
		m.SetStrategy(strat)
		if err := m.Train(samples); err != nil {
			t.Fatal(err)
		}
		var targets []hdc.Vector
		for c := range 4 {
			for range 10 {
				targets = append(targets, flip(rng, protos[c], testDim/3))
			}
		}
		return m, targets
	}
	mass := func(m *Ensemble, targets []hdc.Vector) float64 {
		for range 6 {
			if _, err := m.AdaptIncremental(targets, 1); err != nil {
				t.Fatal(err)
			}
		}
		s := 0.0
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, acc := range m.activeLocked().classAcc {
			s += accumulatorAbsMass(t, acc)
		}
		return s
	}
	mDef, tgtDef := build(DefaultStrategy())
	mEMA, tgtEMA := build(ema)
	if md, me := mass(mDef, tgtDef), mass(mEMA, tgtEMA); me >= md {
		t.Fatalf("EMA accumulator mass %.0f not below permanent bundling's %.0f after repeated adaptation", me, md)
	}
}

// accumulatorAbsMass sums |counter| over an accumulator's marshaled int32
// fixed-point counters (header layout: see hdc.Accumulator.MarshalBinary).
func accumulatorAbsMass(t *testing.T, acc *hdc.Accumulator) float64 {
	t.Helper()
	b, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Skip the header: magic(4) + dim(4); counters follow as int32 LE.
	s := 0.0
	for off := 8; off+4 <= len(b); off += 4 {
		v := int32(uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24)
		s += math.Abs(float64(v))
	}
	return s
}

func TestErrInvalidConfigTyped(t *testing.T) {
	cfg := testModelConfig()
	cfg.Classes = 1
	if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("Validate err = %v, want ErrInvalidConfig", err)
	}
	cfg = testModelConfig()
	cfg.Dim = 7
	if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("dim Validate err = %v, want ErrInvalidConfig", err)
	}
}

// perRowRule is a reference UpdateRule that adds every accepted sample with
// its own Add(hv, rate·simWeight(sim)) call, as the update loop did before
// Apply took a whole class batch. With ema set the rows go into EMAUpdate's
// delta accumulators and EMAUpdate finishes each epoch. maxBatch records
// the largest class batch any of its updaters saw.
type perRowRule struct {
	ema      bool
	maxBatch *int
}

func (perRowRule) Name() string { return "per-row" }

func (r perRowRule) NewUpdater(cfg Config) Updater {
	u := &perRowUpdater{rule: r, rate: cfg.AdaptRate}
	if r.ema {
		u.ema = EMAUpdate{}.NewUpdater(cfg).(*emaUpdater)
	}
	return u
}

type perRowUpdater struct {
	rule perRowRule
	rate float64
	ema  *emaUpdater
}

func (u *perRowUpdater) Apply(acc []*hdc.Accumulator, class int, hvs []hdc.Vector, sims []float64) {
	dst := acc[class]
	if u.ema != nil {
		dst = u.ema.stage(class)
	}
	for i, hv := range hvs {
		dst.Add(hv, u.rate*simWeight(sims[i]))
	}
	*u.rule.maxBatch = max(*u.rule.maxBatch, len(hvs))
}

func (u *perRowUpdater) FinishEpoch(acc []*hdc.Accumulator) {
	if u.ema != nil {
		u.ema.FinishEpoch(acc)
	}
}

// TestBatchedUpdatesMatchPerRowAdds adapts at a scale where class batches
// pass a 255-row chunk, so the bundle and ema rules reach AddWeighted's
// bit-sliced path: AdaptBatch on 1,500 targets, then two AdaptIncremental
// folds of 600. The class accumulators, prototypes and stats must equal
// those of perRowRule, at workers 1 and 4.
func TestBatchedUpdatesMatchPerRowAdds(t *testing.T) {
	const dim, classes = 512, 3
	cfg := Config{
		Dim: dim, Classes: classes, RetrainEpochs: 1, AdaptEpochs: 3,
		Confidence: 0.005, AdaptRate: 2, TopFrac: 0.75,
	}
	rng := testRNG(62)
	protos := make([]hdc.Vector, classes)
	for c := range protos {
		protos[c] = hdc.Random(rng, dim)
	}
	var samples []Sample
	for c, p := range protos {
		for range 30 {
			samples = append(samples, Sample{HV: flip(rng, p, dim/4), Class: c})
		}
	}
	// Targets differ from their prototype in 128 to 191 bits, so their
	// similarities, and with them the low bits of the quantized weights,
	// vary from row to row.
	batches := [][]hdc.Vector{make([]hdc.Vector, 1500), make([]hdc.Vector, 600), make([]hdc.Vector, 600)}
	for _, batch := range batches {
		for i := range batch {
			batch[i] = flip(rng, protos[i%classes], dim/4+rng.IntN(dim/8))
		}
	}
	type result struct {
		stats []AdaptStats
		accs  [][]byte
		prot  []hdc.Vector
	}
	run := func(update UpdateRule, workers int) result {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetStrategy(Strategy{Update: update})
		if err := m.Train(samples); err != nil {
			t.Fatal(err)
		}
		var r result
		for i, batch := range batches {
			adapt := m.AdaptIncremental
			if i == 0 {
				adapt = m.AdaptBatch
			}
			stats, err := adapt(batch, workers)
			if err != nil {
				t.Fatal(err)
			}
			r.stats = append(r.stats, stats)
		}
		m.mu.Lock()
		for _, acc := range m.activeLocked().classAcc {
			b, err := acc.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			r.accs = append(r.accs, b)
		}
		m.mu.Unlock()
		r.prot = m.Snapshot().AdaptedPrototypes()
		return r
	}
	for _, rule := range []struct {
		update UpdateRule
		ema    bool
	}{{BundleUpdate{}, false}, {EMAUpdate{}, true}} {
		maxBatch := 0
		want := run(perRowRule{ema: rule.ema, maxBatch: &maxBatch}, 1)
		if maxBatch <= 255 {
			t.Fatalf("%s: largest class batch %d rows, want more than a 255-row chunk", rule.update.Name(), maxBatch)
		}
		for _, workers := range []int{1, 4} {
			got := run(rule.update, workers)
			name := fmt.Sprintf("%s/workers=%d", rule.update.Name(), workers)
			if !reflect.DeepEqual(got.stats, want.stats) {
				t.Fatalf("%s: stats %+v, per-row reference %+v", name, got.stats, want.stats)
			}
			for c := range want.accs {
				if !bytes.Equal(got.accs[c], want.accs[c]) {
					t.Fatalf("%s: class %d accumulator differs from per-row adds", name, c)
				}
				if !got.prot[c].Equal(want.prot[c]) {
					t.Fatalf("%s: class %d prototype differs from per-row adds", name, c)
				}
			}
		}
	}
}
