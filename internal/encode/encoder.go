// Package encode maps multi-sensor time-series windows into binary
// hypervectors following the SMORE/DOMINO recipe: each (sensor, quantized
// value) pair is bound as sensorID XOR levelHV, sensor terms are
// majority-bundled into a per-timestep vector, consecutive timesteps form
// permutation-shifted n-grams, and the n-grams are bundled into the final
// window hypervector.
package encode

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"go-arxiv/smore/internal/hdc"
	"go-arxiv/smore/internal/parallel"
)

// Config parameterizes an Encoder.
type Config struct {
	Dim     int     // hypervector dimension, positive multiple of 64
	Sensors int     // number of sensor channels
	Levels  int     // quantization levels for sensor values, >= 2
	NGram   int     // temporal n-gram length, >= 1
	Min     float64 // lower clamp of the quantization range
	Max     float64 // upper clamp of the quantization range
	Seed    uint64  // seed for the item memories (ID and level vectors)
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	if err := hdc.CheckDim(c.Dim); err != nil {
		return err
	}
	if c.Sensors < 1 {
		return fmt.Errorf("encode: Sensors %d < 1", c.Sensors)
	}
	if c.Levels < 2 {
		return fmt.Errorf("encode: Levels %d < 2", c.Levels)
	}
	if c.Levels-1 > c.Dim/2 {
		return fmt.Errorf("encode: Levels %d needs at least %d dimensions to keep adjacent levels distinct", c.Levels, 2*(c.Levels-1))
	}
	if c.NGram < 1 {
		return fmt.Errorf("encode: NGram %d < 1", c.NGram)
	}
	if !(c.Max > c.Min) {
		return fmt.Errorf("encode: Max %v must exceed Min %v", c.Max, c.Min)
	}
	return nil
}

// Encoder holds the frozen item memories. It is safe for concurrent use
// once constructed, since Encode only reads the memories.
type Encoder struct {
	cfg       Config
	sensorIDs []hdc.Vector // one quasi-orthogonal ID per sensor
	levels    []hdc.Vector // correlated level vectors, similarity decays with distance

	// pairs caches every sensorID ⊗ level binding in one contiguous
	// row-major matrix (row s*Levels+l): the sensor/level space is finite,
	// so the per-sample inner loop of Encode is a row lookup instead of an
	// XOR pass over the whole vector.
	pairs *hdc.Matrix

	// scratch pools *Scratch values so Encode and EncodeBatch reuse
	// per-window working state instead of reallocating it; serving and
	// streaming traffic hit this steady-state path on every request.
	scratch sync.Pool
}

// New builds the encoder's item memories deterministically from cfg.Seed.
func New(cfg Config) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5eed))
	e := &Encoder{cfg: cfg}
	e.sensorIDs = make([]hdc.Vector, cfg.Sensors)
	for s := range e.sensorIDs {
		e.sensorIDs[s] = hdc.Random(rng, cfg.Dim)
	}
	// Level vectors: start from a random base and flip a disjoint random
	// slice of Dim/2 bits spread over the levels, so adjacent levels are
	// nearly identical and the extremes are quasi-orthogonal.
	e.levels = make([]hdc.Vector, cfg.Levels)
	e.levels[0] = hdc.Random(rng, cfg.Dim)
	perm := rng.Perm(cfg.Dim)[:cfg.Dim/2]
	per := len(perm) / (cfg.Levels - 1)
	for l := 1; l < cfg.Levels; l++ {
		v := e.levels[l-1].Clone()
		lo, hi := (l-1)*per, l*per
		if l == cfg.Levels-1 {
			hi = len(perm)
		}
		for _, bit := range perm[lo:hi] {
			v.FlipBit(bit)
		}
		e.levels[l] = v
	}
	e.pairs = hdc.NewMatrix(cfg.Sensors*cfg.Levels, cfg.Dim)
	for s := range cfg.Sensors {
		for l := range cfg.Levels {
			row := e.pairs.Row(s*cfg.Levels + l)
			e.sensorIDs[s].BindInto(e.levels[l], &row)
		}
	}
	return e, nil
}

// Config returns the encoder's configuration.
func (e *Encoder) Config() Config { return e.cfg }

// Quantize maps a sensor value to its level index, clamping to [Min, Max].
// NaN maps to level 0 so corrupt sensor readings stay in range instead of
// hitting the implementation-defined float-to-int conversion.
func (e *Encoder) Quantize(x float64) int {
	c := e.cfg
	if math.IsNaN(x) || x <= c.Min {
		return 0
	}
	if x >= c.Max {
		return c.Levels - 1
	}
	l := int((x - c.Min) / (c.Max - c.Min) * float64(c.Levels))
	if l > c.Levels-1 {
		l = c.Levels - 1
	}
	return l
}

// gramBlock is the number of complete n-grams EncodeInto collects before it
// bundles them into the window accumulator with one AddRows call.
const gramBlock = 64

// Scratch is the reusable working state of one Encode pass: the current
// step vector, the block of n-grams awaiting the window bundle, the ring of
// shifted steps the sliding recurrence folds out, and the window
// accumulator. A Scratch is bound to the encoder configuration it was
// created from and is not safe for concurrent use; create one per goroutine
// with NewScratch, or let Encode/EncodeBatch pool them internally.
type Scratch struct {
	rows   []hdc.Vector // bound-pair rows selected by the current timestep
	step   hdc.Vector   // spatial bundle of the current timestep
	tmp    hdc.Vector   // rotated previous gram
	block  []hdc.Vector // gramBlock row views of one hdc.Matrix
	ring   []hdc.Vector // P^NGram-shifted steps, indexed t mod NGram
	winAcc *hdc.Accumulator

	// stepAcc is the fallback spatial bundler for configurations with more
	// sensors than the fused register kernel can count.
	stepAcc *hdc.Accumulator
}

// NewScratch allocates encode working state sized for e's configuration.
func (e *Encoder) NewScratch() *Scratch {
	c := e.cfg
	grams := hdc.NewMatrix(gramBlock, c.Dim)
	sc := &Scratch{
		rows:   make([]hdc.Vector, c.Sensors),
		step:   hdc.New(c.Dim),
		tmp:    hdc.New(c.Dim),
		block:  make([]hdc.Vector, gramBlock),
		winAcc: hdc.NewAccumulator(c.Dim),
	}
	for i := range sc.block {
		sc.block[i] = grams.Row(i)
	}
	if c.NGram > 1 {
		sc.ring = make([]hdc.Vector, c.NGram)
		for i := range sc.ring {
			sc.ring[i] = hdc.New(c.Dim)
		}
	}
	if c.Sensors > hdc.BundleRowsMax {
		sc.stepAcc = hdc.NewAccumulator(c.Dim)
	}
	return sc
}

func (e *Encoder) getScratch() *Scratch {
	if sc, ok := e.scratch.Get().(*Scratch); ok {
		return sc
	}
	return e.NewScratch()
}

// Encode maps a window to a hypervector. window[t][s] is the value of
// sensor s at timestep t; every row must have exactly cfg.Sensors values
// and the window must hold at least NGram timesteps.
func (e *Encoder) Encode(window [][]float64) (hdc.Vector, error) {
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	out := hdc.New(e.cfg.Dim)
	if err := e.EncodeInto(sc, window, &out); err != nil {
		return hdc.Vector{}, err
	}
	return out, nil
}

// EncodeInto encodes window into dst using sc's buffers; with a reused
// Scratch and a caller-owned dst the steady-state path allocates nothing.
//
// The temporal pass exploits that permutation is a rotation and bind is
// XOR, so rotation distributes over the n-gram product: with
// gram(t) = Π_k P^(n-1-k)(step[t+k]),
//
//	gram(t+1) = P(gram(t)) ⊗ P^n(step[t]) ⊗ step[t+n]
//
// — rotate the previous gram once, fold out the leaving step (its P^n shift
// was stashed in the ring when it entered), fold in the arriving step. Each
// position therefore costs O(1) vector ops regardless of NGram, instead of
// the NGram permute+bind passes of the direct product, and the bits are
// identical because every operation is exact. Each gram is written straight
// into the next row of sc's gram block, which is bundled into the window
// accumulator whenever it fills and once more at the end.
//
//smore:hotpath
func (e *Encoder) EncodeInto(sc *Scratch, window [][]float64, dst *hdc.Vector) error {
	c := e.cfg
	if len(window) < c.NGram {
		return fmt.Errorf("encode: window of %d timesteps shorter than n-gram %d", len(window), c.NGram)
	}
	if dst.Dim() != c.Dim {
		return fmt.Errorf("encode: destination dimension %d, want %d", dst.Dim(), c.Dim)
	}
	n := c.NGram
	sc.winAcc.Reset()
	// grams counts the complete n-grams waiting in the block. Each step's
	// gram, complete or still partial, is written to row grams; prev is the
	// previous step's row, which a flush leaves intact.
	grams := 0
	var prev hdc.Vector
	for t, row := range window {
		if len(row) != c.Sensors {
			return fmt.Errorf("encode: timestep %d has %d sensors, want %d", t, len(row), c.Sensors)
		}
		e.bundleStep(sc, row)
		gram := sc.block[grams]
		if t == 0 || n == 1 {
			sc.step.CopyInto(&gram)
		} else {
			// Slide: rotate the previous gram, drop the leaving step once
			// the window is full, fold in the new step. Before the window
			// fills this same rotate-and-fold builds gram(0) incrementally.
			prev.PermuteInto(1, &sc.tmp)
			if t >= n {
				sc.tmp.BindInto(sc.ring[t%n], &sc.tmp)
			}
			sc.tmp.BindInto(sc.step, &gram)
		}
		prev = gram
		if t >= n-1 {
			if grams++; grams == gramBlock {
				sc.winAcc.AddRows(sc.block...)
				grams = 0
			}
		}
		if n > 1 && t+n < len(window) {
			// This step leaves the sliding gram at timestep t+n; stash its
			// P^n shift now so the removal there is a single XOR. The slot
			// it lands in is exactly the one the fold-out at t+n reads.
			sc.step.PermuteInto(n, &sc.ring[t%n])
		}
	}
	sc.winAcc.AddRows(sc.block[:grams]...)
	sc.winAcc.MajorityInto(dst)
	return nil
}

// bundleStep writes the spatial encoding of one timestep into sc.step: the
// majority bundle of the cached sensorID ⊗ level rows selected by the
// row's quantized values. Configurations within the fused kernel's lane
// budget never touch accumulator staging memory.
func (e *Encoder) bundleStep(sc *Scratch, row []float64) {
	c := e.cfg
	for s, x := range row {
		sc.rows[s] = e.pairs.Row(s*c.Levels + e.Quantize(x))
	}
	if sc.stepAcc == nil {
		hdc.BundleRowsInto(&sc.step, sc.rows...)
		return
	}
	sc.stepAcc.Reset()
	sc.stepAcc.AddRows(sc.rows...)
	sc.stepAcc.MajorityInto(&sc.step)
}

// EncodeBatch encodes windows concurrently on a pool of the given worker
// count (workers <= 0 means GOMAXPROCS). Each window is encoded with its own
// scratch state and written to its own output slot, so the result is
// byte-identical for every worker count. On error the lowest-index failure
// is returned and the partial results are discarded.
func (e *Encoder) EncodeBatch(windows [][][]float64, workers int) ([]hdc.Vector, error) {
	out := make([]hdc.Vector, len(windows))
	err := parallel.NewPool(workers).ForEachErr(len(windows), func(i int) error {
		hv, err := e.Encode(windows[i])
		if err != nil {
			return fmt.Errorf("window %d: %w", i, err)
		}
		out[i] = hv
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MustEncode is Encode for windows known to be well-formed; it panics on
// error. Intended for tests and benchmarks.
func (e *Encoder) MustEncode(window [][]float64) hdc.Vector {
	v, err := e.Encode(window)
	if err != nil {
		panic(err)
	}
	return v
}
