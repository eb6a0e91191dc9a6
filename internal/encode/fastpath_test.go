package encode

import (
	"math/rand/v2"
	"testing"

	"go-arxiv/smore/internal/hdc"
)

// encodeReference is the pre-recurrence encoder: materialize every
// timestep bundle, then build each n-gram as the full permute-and-bind
// product. Both bundles count with majorityRef instead of hdc's
// accumulator or register kernels, so it is a brute-force oracle the
// sliding fast path must match bit for bit without sharing its bundling
// code.
func encodeReference(e *Encoder, window [][]float64) hdc.Vector {
	c := e.cfg
	steps := make([]hdc.Vector, len(window))
	bound := make([]hdc.Vector, c.Sensors)
	for t, row := range window {
		for s, x := range row {
			bound[s] = e.sensorIDs[s].Bind(e.levels[e.Quantize(x)])
		}
		steps[t] = majorityRef(bound)
	}
	var grams []hdc.Vector
	shifted := hdc.New(c.Dim)
	for t := 0; t+c.NGram <= len(steps); t++ {
		gram := steps[t].Permute(c.NGram - 1)
		for k := 1; k < c.NGram; k++ {
			steps[t+k].PermuteInto(c.NGram-1-k, &shifted)
			gram.BindInto(shifted, &gram)
		}
		grams = append(grams, gram)
	}
	return majorityRef(grams)
}

// majorityRef bundles vs with one plain integer counter per bit: +1 for a
// one bit, -1 for a zero bit. A zero total takes bit splitmix64(i) & 1,
// the deterministic tie rule hdc's Majority documents.
func majorityRef(vs []hdc.Vector) hdc.Vector {
	out := hdc.New(vs[0].Dim())
	for i := range out.Dim() {
		total := 0
		for _, v := range vs {
			total += 2*v.Bit(i) - 1
		}
		switch {
		case total > 0:
			out.SetBit(i, 1)
		case total == 0:
			out.SetBit(i, int(splitmix64(uint64(i))&1))
		}
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer behind the tie rule.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func randomWindow(rng *rand.Rand, timesteps, sensors int) [][]float64 {
	w := make([][]float64, timesteps)
	for t := range w {
		row := make([]float64, sensors)
		for s := range row {
			row[s] = 6*rng.Float64() - 3
		}
		w[t] = row
	}
	return w
}

// TestEncodeMatchesBruteForceOracle sweeps n-gram lengths, window lengths
// (including windows exactly one n-gram long, windows whose grams overflow
// the gram block, and windows past the accumulator's 255-add staging cap),
// and sensor counts on both sides of the fused-bundle lane budget, asserting
// the sliding recurrence, bound-pair cache and blocked window bundle are
// byte-identical to the direct product.
func TestEncodeMatchesBruteForceOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for _, tc := range []struct {
		ngram, timesteps, sensors int
	}{
		{1, 1, 3}, {1, 9, 3},
		{2, 2, 3}, {2, 17, 4},
		{3, 3, 4}, {3, 16, 4}, {3, 64, 4},
		{5, 5, 2}, {5, 23, 2},
		{7, 40, 1},
		{3, 67, 4}, {2, 257, 2}, {3, 300, 4}, {1, 600, 3},
		{3, 12, hdc.BundleRowsMax},     // largest fused bundle
		{3, 12, hdc.BundleRowsMax + 2}, // accumulator fallback path
	} {
		cfg := Config{Dim: 512, Sensors: tc.sensors, Levels: 8, NGram: tc.ngram, Min: -3, Max: 3, Seed: 77}
		enc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		window := randomWindow(rng, tc.timesteps, tc.sensors)
		got := enc.MustEncode(window)
		want := encodeReference(enc, window)
		if !got.Equal(want) {
			t.Fatalf("ngram=%d timesteps=%d sensors=%d: fast path diverged from brute-force oracle",
				tc.ngram, tc.timesteps, tc.sensors)
		}
	}
}

// TestBoundPairCache pins the precomputed pairs matrix to the binding it
// replaces.
func TestBoundPairCache(t *testing.T) {
	enc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := enc.cfg
	for s := range c.Sensors {
		for l := range c.Levels {
			if !enc.pairs.Row(s*c.Levels + l).Equal(enc.sensorIDs[s].Bind(enc.levels[l])) {
				t.Fatalf("cached pair (sensor %d, level %d) != sensorID ⊗ level", s, l)
			}
		}
	}
}

// TestEncodeIntoZeroAllocs pins the scratch fast path at zero allocations
// per window, so the serving hot path cannot silently regress back to
// per-call state.
func TestEncodeIntoZeroAllocs(t *testing.T) {
	enc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := enc.NewScratch()
	window := testWindow()
	dst := hdc.New(enc.cfg.Dim)
	if err := enc.EncodeInto(sc, window, &dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := enc.EncodeInto(sc, window, &dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncodeInto allocated %.1f times per run, want 0", allocs)
	}
}

// TestFailedWindowLeavesScratchReusable encodes a window that fails part
// way, after its gram block already holds grams, then a good window on the
// same Scratch, as Encode's pool hands a scratch to the next request even
// after an error. The good window must encode exactly as on a fresh Scratch.
func TestFailedWindowLeavesScratchReusable(t *testing.T) {
	enc, err := New(Config{Dim: 512, Sensors: 3, Levels: 8, NGram: 3, Min: -3, Max: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(33, 34))
	bad := randomWindow(rng, 64, 3)
	bad[30] = bad[30][:2]
	good := randomWindow(rng, 67, 3)
	sc := enc.NewScratch()
	got := hdc.New(512)
	if err := enc.EncodeInto(sc, bad, &got); err == nil {
		t.Fatal("accepted a timestep with the wrong sensor count")
	}
	if err := enc.EncodeInto(sc, good, &got); err != nil {
		t.Fatal(err)
	}
	want := hdc.New(512)
	if err := enc.EncodeInto(enc.NewScratch(), good, &want); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("a failed window changed the next encode on the same Scratch")
	}
}

func TestEncodeIntoErrors(t *testing.T) {
	enc, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := enc.NewScratch()
	short := hdc.New(64)
	if err := enc.EncodeInto(sc, testWindow(), &short); err == nil {
		t.Error("accepted a destination with the wrong dimension")
	}
	dst := hdc.New(enc.cfg.Dim)
	if err := enc.EncodeInto(sc, [][]float64{{0, 0, 0}}, &dst); err == nil {
		t.Error("accepted a window shorter than the n-gram")
	}
}

// BenchmarkEncodeScratch is the zero-allocation steady-state encode path
// the serving and streaming layers run per window.
func BenchmarkEncodeScratch(b *testing.B) {
	enc, err := New(Config{Dim: 4096, Sensors: 4, Levels: 32, NGram: 3, Min: -3, Max: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 3))
	window := randomWindow(rng, 64, 4)
	sc := enc.NewScratch()
	dst := hdc.New(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if err := enc.EncodeInto(sc, window, &dst); err != nil {
			b.Fatal(err)
		}
	}
}
