package hdc

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Accumulator is a signed per-bit counter used to bundle hypervectors and to
// hold non-binarized class prototypes. Adding a vector with weight w adds +w
// to every counter whose bit is 1 and -w to every counter whose bit is 0, so
// Majority recovers the element-wise weighted majority vote. Negative
// weights subtract a vector, which is what perceptron-style retraining and
// prototype correction need.
//
// Counters are fixed-point int32 values in units of 1/weightScale, so
// fractional weights are quantized to the nearest 1/256 (a weight that
// quantizes to zero is a no-op) and a counter saturates at ±(2^31 - 1) —
// about ±8M accumulated units — rather than wrapping. The hot path — adds
// with weight exactly ±1, which is all that encoding and single-shot
// training ever issue — never touches the int32 counters at all: it adds
// the vector's words into a small bit-sliced staging battery (stagePlanes
// uint64 planes per word, i.e. 64 counters advance per word operation),
// one ripple per Add or one carry-save count per eight rows in AddRows, and
// only expands to int32 when the battery fills, a fractional-weight add
// arrives, or a reader needs the totals. Majority on a battery-only
// accumulator binarizes straight from the planes with a word-parallel
// magnitude comparison, never materializing per-bit integers.
//
// Weighted batches use the battery too. AddWeighted splits the quantized
// weights into their bits; for each bit b it counts the rows carrying b on
// the battery and expands the count into the int32 counters shifted left
// by b, so a batch costs one counter pass per weight bit and 255-row chunk
// instead of one per row. Small batches, negative weights and batches that
// could reach a rail take one Add per row instead.
//
// An Accumulator is not safe for concurrent use: because of the lazy
// battery, even Majority may rewrite internal state. The one read-only
// exception is the `other` argument of AddScaled, so a shared source
// accumulator may seed several targets concurrently.
type Accumulator struct {
	dim    int
	counts []int32  // flushed fixed-point counters, all zero unless dirty
	planes []uint64 // stagePlanes bit-sliced planes of dim/64 words each
	staged int32    // number of ±1 adds held in the planes (0..stageCap)
	dirty  bool     // counts holds flushed data (planes-only path unusable)
	ties   []uint64 // per-bit deterministic tie-break bits (shared, read-only)
}

const (
	// weightScale is the fixed-point scale of the int32 counters: one unit
	// add is 1<<weightShift counter units.
	weightShift = 8
	weightScale = 1 << weightShift
	// stagePlanes is the width of the bit-sliced staging counter; it can
	// hold stageCap = 2^stagePlanes - 1 unit adds before a flush. Eight
	// planes let a whole window bundle (hundreds of n-grams) binarize
	// straight from the battery without ever expanding to int32 counters;
	// adds, flushes, and Reset all skip the planes the current staged
	// count cannot have reached, so the extra width costs nothing on
	// small bundles.
	stagePlanes = 8
	stageCap    = 1<<stagePlanes - 1
	// maxWeight bounds |weight| in Add so the scaled fixed-point value
	// (and a doubling of it in the branchless inner loop) stays well
	// inside int32.
	maxWeight = 1 << 20
	// addWeightedMinRows is the smallest batch AddWeighted counts bit by
	// bit. Below it one Add per row is faster: the batched path pays a
	// counter pass per weight bit however few rows carry that bit
	// (BenchmarkAccumulatorAddWeighted, PAPER.md "Performance").
	addWeightedMinRows = 32
)

// tieCache memoizes the per-dimension tie-break words: bit i of the mask is
// splitmix64(i) & 1, the same deterministic pseudo-random vote the scalar
// implementation used, so tie behavior is stable across releases. It is a
// copy-on-write map behind an atomic pointer rather than a sync.Map so the
// hit path is a plain int-keyed lookup with no key boxing — BundleRowsInto
// consults it on every call.
var (
	tieCacheMu sync.Mutex                       // serializes cache misses
	tieCache   atomic.Pointer[map[int][]uint64] // read-only once published
)

func tieWords(dim int) []uint64 {
	var w []uint64
	if m := tieCache.Load(); m != nil {
		w = (*m)[dim]
	}
	if w == nil {
		return tieWordsSlow(dim)
	}
	return w
}

// tieWordsSlow computes and publishes the tie words for a dimension seen for
// the first time. The whole map is re-copied under tieCacheMu so readers
// never see a map being written; distinct dimensions are few, so the copy is
// trivially cheap.
func tieWordsSlow(dim int) []uint64 {
	tieCacheMu.Lock()
	defer tieCacheMu.Unlock()
	if m := tieCache.Load(); m != nil {
		if w, ok := (*m)[dim]; ok {
			return w
		}
	}
	words := make([]uint64, dim/WordBits)
	for i := range dim {
		words[i/WordBits] |= (splitmix64(uint64(i)) & 1) << (i % WordBits)
	}
	next := make(map[int][]uint64)
	if m := tieCache.Load(); m != nil {
		for k, v := range *m {
			next[k] = v
		}
	}
	next[dim] = words
	tieCache.Store(&next)
	return words
}

// NewAccumulator returns an empty accumulator of the given dimension.
func NewAccumulator(dim int) *Accumulator {
	if err := CheckDim(dim); err != nil {
		panic(err)
	}
	return &Accumulator{
		dim:    dim,
		counts: make([]int32, dim),
		planes: make([]uint64, stagePlanes*dim/WordBits),
		ties:   tieWords(dim),
	}
}

// Dim returns the dimension in bits.
func (a *Accumulator) Dim() int { return a.dim }

// plane returns the p-th bit-sliced staging plane.
func (a *Accumulator) plane(p int) []uint64 {
	n := a.dim / WordBits
	return a.planes[p*n : (p+1)*n : (p+1)*n]
}

// Add accumulates v with the given weight. Weights other than ±1 are
// quantized to the nearest 1/256; a weight that quantizes to zero is a no-op.
func (a *Accumulator) Add(v Vector, weight float64) {
	if v.dim != a.dim {
		panic("hdc: accumulator dimension mismatch")
	}
	switch weight {
	case 1:
		a.addUnit(v.words, 0)
	case -1:
		// Subtracting v is the same as adding its complement: every
		// one-bit contributes -1 and every zero-bit +1.
		a.addUnit(v.words, ^uint64(0))
	default:
		wgt := quantize(weight)
		if wgt == 0 {
			return
		}
		a.flush()
		a.addWeighted(v.words, wgt)
	}
}

// quantize converts a weight to fixed-point counter units. It panics on
// NaN, ±Inf, and magnitudes whose scaled value would hit the
// implementation-defined float-to-int32 conversion, failing loudly instead
// of corrupting counters architecture-dependently.
func quantize(weight float64) int32 {
	if !(math.Abs(weight) <= maxWeight) {
		panic("hdc: accumulator weight outside ±2^20")
	}
	return int32(math.Round(weight * weightScale))
}

// AddWeighted adds every row with its weight. The totals equal calling
// Add(rows[i], weights[i]) for each i in order. It panics before touching
// any state if the lengths differ, a row's dimension differs, or a weight
// is one Add would reject.
//
// A batch of at least addWeightedMinRows rows with no negative quantized
// weight is counted bit by bit: for each bit b of the quantized weights,
// the rows carrying b enter the staging battery by the carry-save path of
// AddRows, at most stageCap at a time, and each chunk is expanded into the
// int32 counters shifted left by b. The batched path runs only when no
// partial sum can reach a rail, where every order of adds gives the same
// counters; smaller batches, negative weights and batches that could
// saturate take one Add per row, keeping Add's saturation behaviour.
func (a *Accumulator) AddWeighted(rows []Vector, weights []float64) {
	if len(rows) != len(weights) {
		panic("hdc: AddWeighted needs one weight per row")
	}
	for _, v := range rows {
		if v.dim != a.dim {
			panic("hdc: accumulator dimension mismatch")
		}
	}
	// used ORs every quantized weight: it is negative iff one is, and its
	// bit length is the number of weight bits to count.
	q := make([]int32, len(weights))
	var total int64
	var used int32
	for i, w := range weights {
		q[i] = quantize(w)
		total += int64(q[i])
		used |= q[i]
	}
	if len(rows) < addWeightedMinRows || used < 0 || !a.fits(total) {
		for i, v := range rows {
			a.Add(v, weights[i])
		}
		return
	}
	a.addBits(rows, q, used)
}

// addBits is AddWeighted's batched path: rows with non-negative quantized
// weights q, which OR to used, such that no partial sum can saturate a
// counter.
func (a *Accumulator) addBits(rows []Vector, q []int32, used int32) {
	a.flush()
	carriers := make([]Vector, 0, len(rows))
	for b := range bits.Len32(uint32(used)) {
		carriers = carriers[:0]
		for i, v := range rows {
			if q[i]>>b&1 != 0 {
				carriers = append(carriers, v)
			}
		}
		for lo := 0; lo < len(carriers); lo += stageCap {
			a.stage(carriers[lo:min(lo+stageCap, len(carriers))])
			a.expand(uint(b))
		}
	}
}

// fits reports whether adding total non-negative fixed-point units to the
// largest counter, on top of the staged battery, stays within int32: then
// no partial sum of the batch can saturate.
func (a *Accumulator) fits(total int64) bool {
	var peak int64
	if a.dirty {
		for _, c := range a.counts {
			peak = max(peak, int64(c), -int64(c))
		}
	}
	return peak+int64(a.staged)*weightScale+total <= math.MaxInt32
}

// usedPlanes returns how many low staging planes can be nonzero: per-bit
// counts never exceed the staged add count, so every plane at or above its
// bit length is still all-zero and can be skipped by flush, Majority, and
// Reset.
func (a *Accumulator) usedPlanes() int {
	return bits.Len(uint(a.staged))
}

// addUnit ripples words (XORed with inv, so inv == ^0 adds the complement)
// into the staging battery: one carry-propagating add across the planes
// advances 64 counters per word operation. The ripple always runs over the
// bits.Len(staged+1) planes the new count can reach, with no data-dependent
// exit, so the loop bound is fixed for the whole vector.
func (a *Accumulator) addUnit(words []uint64, inv uint64) {
	if a.staged == stageCap {
		a.flush()
	}
	n := a.dim / WordBits
	planes := a.planes[:bits.Len(uint(a.staged)+1)*n]
	for wi, w := range words {
		carry := w ^ inv
		for i := wi; i < len(planes); i += n {
			t := planes[i]
			planes[i] = t ^ carry
			carry &= t
		}
	}
	a.staged++
}

// AddRows adds every row with weight 1. The totals equal calling Add(v, 1)
// on each row in turn, but each group of eight rows is counted in registers
// by a carry-save adder tree and enters the staging battery through one
// full-adder chain per chunk, instead of one plane ripple per row; only the
// rows left over after the last group take Add's ripple. It panics before
// touching any state if a row's dimension differs.
//
//smore:hotpath
func (a *Accumulator) AddRows(rows ...Vector) {
	for _, v := range rows {
		if v.dim != a.dim {
			panic("hdc: accumulator dimension mismatch")
		}
	}
	for len(rows) > 0 {
		if a.staged == stageCap {
			a.flush()
		}
		k := min(len(rows), int(stageCap-a.staged))
		a.stage(rows[:k])
		rows = rows[k:]
	}
}

// stage counts at most stageCap-staged rows into the battery with weight
// 1: each group of eight through addGroups, the rest with one ripple each.
func (a *Accumulator) stage(rows []Vector) {
	g := len(rows) &^ 7
	if g > 0 {
		a.addGroups(rows[:g])
	}
	for _, v := range rows[g:] {
		a.addUnit(v.words, 0)
	}
}

// addGroups adds a multiple of eight rows, at most stageCap-staged of them.
// Per word, a Harley–Seal tree of seven carry-save adders reduces each group
// of eight row words to one weight-8 carry, leaving the running ones, twos
// and fours lanes in registers; the weight-8 carries ripple into a
// five-lane register counter. The resulting eight-lane count is added to the
// battery planes with one full-adder chain.
func (a *Accumulator) addGroups(rows []Vector) {
	n := a.dim / WordBits
	planes := a.planes[:bits.Len(uint(a.staged)+uint(len(rows)))*n]
	for wi := range n {
		var ones, twos, fours, e0, e1, e2, e3, e4 uint64
		for i := 0; i+8 <= len(rows); i += 8 {
			r := rows[i : i+8 : i+8]
			o, t1 := csa(ones, r[0].words[wi], r[1].words[wi])
			o, t2 := csa(o, r[2].words[wi], r[3].words[wi])
			tw, f1 := csa(twos, t1, t2)
			o, t3 := csa(o, r[4].words[wi], r[5].words[wi])
			o, t4 := csa(o, r[6].words[wi], r[7].words[wi])
			tw, f2 := csa(tw, t3, t4)
			fo, eights := csa(fours, f1, f2)
			ones, twos, fours = o, tw, fo
			c := e0 & eights
			e0 ^= eights
			e1, c = e1^c, e1&c
			e2, c = e2^c, e2&c
			e3, c = e3^c, e3&c
			e4 ^= c
		}
		count := [stagePlanes]uint64{ones, twos, fours, e0, e1, e2, e3, e4}
		var carry uint64
		for p, i := 0, wi; i < len(planes); p, i = p+1, i+n {
			t, c := planes[i], count[p]
			u := t ^ c
			planes[i] = u ^ carry
			carry = t&c | u&carry
		}
	}
	a.staged += int32(len(rows))
}

// flush expands the staging battery into the int32 counters, each staged
// ±1 add worth weightScale units.
func (a *Accumulator) flush() { a.expand(weightShift) }

// expand empties the staging battery into the int32 counters with every
// staged row worth 2^shift units: a battery holding s rows of which ones
// were 1-bits contributes (2*ones - s) << shift. AddWeighted expands each
// chunk of rows carrying weight bit b with shift b. Eight counters' ones
// counts are gathered at a time, one byte each, with one byteLanes lookup
// per plane.
func (a *Accumulator) expand(shift uint) {
	if a.staged == 0 {
		return
	}
	staged := int64(a.staged)
	n := a.dim / WordBits
	top := a.usedPlanes()
	var ps [stagePlanes][]uint64
	for p := 0; p < top; p++ {
		ps[p] = a.plane(p)
	}
	for wi := range n {
		var pw [stagePlanes]uint64
		for p := 0; p < top; p++ {
			pw[p] = ps[p][wi]
			ps[p][wi] = 0
		}
		for k := range WordBits / 8 {
			// lanes holds the ones counts of counters 8k..8k+7, one per
			// byte: plane p contributes bit p of each.
			var lanes uint64
			for p := 0; p < top; p++ {
				lanes |= byteLanes[byte(pw[p]>>(8*k))] << p
			}
			c := (*[8]int32)(a.counts[wi*WordBits+8*k:])
			for m := range c {
				ones := int64(lanes >> (8 * m) & 0xff)
				c[m] = satAdd(c[m], (ones<<1-staged)<<shift)
			}
		}
	}
	a.staged = 0
	a.dirty = true
}

// byteLanes spreads a byte over the low bits of eight bytes: bit m of x is
// bit 8m of byteLanes[x].
var byteLanes = func() (t [256]uint64) {
	for x := range t {
		for m := range 8 {
			t[x] |= uint64(x>>m&1) << (8 * m)
		}
	}
	return t
}()

// satAdd adds two counters with int32 saturation, so a counter that hits a
// rail sticks there instead of wrapping and flipping its majority sign.
func satAdd(a int32, b int64) int32 {
	s := int64(a) + b
	switch {
	case s > math.MaxInt32:
		return math.MaxInt32
	case s < math.MinInt32:
		return math.MinInt32
	}
	return int32(s)
}

// addWeighted applies a general fixed-point weight with a branchless
// word-chunked loop. Callers must flush the staging battery first.
func (a *Accumulator) addWeighted(words []uint64, wgt int32) {
	two := wgt * 2
	for wi, w := range words {
		c := (*[WordBits]int32)(a.counts[wi*WordBits:])
		for j := 0; j < WordBits; j++ {
			c[j] = satAdd(c[j], int64(int32(w>>j&1)*two-wgt))
		}
	}
	a.dirty = true
}

// AddScaled adds every counter of other scaled by weight. It lets a model
// seed a new prototype from a similarity-weighted mixture of existing ones.
// Scaled counters are rounded to the nearest 1/256 unit. other is only
// read, never mutated, so one source accumulator can seed many targets
// concurrently; staged adds it still holds are folded in on the fly.
func (a *Accumulator) AddScaled(other *Accumulator, weight float64) {
	if other.dim != a.dim {
		panic("hdc: accumulator dimension mismatch")
	}
	if !(math.Abs(weight) <= maxWeight) {
		panic("hdc: accumulator weight outside ±2^20")
	}
	a.flush()
	staged := other.staged
	otop := other.usedPlanes()
	var ops [stagePlanes][]uint64
	for p := 0; p < otop; p++ {
		ops[p] = other.plane(p)
	}
	for wi := range other.dim / WordBits {
		var pw [stagePlanes]uint64
		for p := 0; p < otop; p++ {
			pw[p] = ops[p][wi]
		}
		oc := (*[WordBits]int32)(other.counts[wi*WordBits:])
		c := (*[WordBits]int32)(a.counts[wi*WordBits:])
		for j := 0; j < WordBits; j++ {
			ones := int32(0)
			for p := 0; p < otop; p++ {
				ones |= int32(pw[p]>>j&1) << p
			}
			// int64: a rail-saturated counter plus the staged
			// contribution would wrap int32.
			eff := int64(oc[j]) + int64((ones<<1-staged)*weightScale)
			if eff != 0 {
				// Saturate: a large counter times a large weight can
				// leave int32, where the raw conversion would be
				// implementation-defined. The float64 sum is exact
				// (well under 2^53).
				s := float64(c[j]) + math.Round(float64(eff)*weight)
				switch {
				case s > math.MaxInt32:
					c[j] = math.MaxInt32
				case s < math.MinInt32:
					c[j] = math.MinInt32
				default:
					c[j] = int32(s)
				}
			}
		}
	}
	a.dirty = true
}

// Majority binarizes the accumulator: bit i is 1 when its counter is
// positive and 0 when negative. Exact ties break on a deterministic
// pseudo-random hash of the bit index so bundles of an even number of
// vectors stay unbiased yet reproducible.
func (a *Accumulator) Majority() Vector {
	v := New(a.dim)
	a.MajorityInto(&v)
	return v
}

// MajorityInto is Majority writing into a caller-owned vector of the same
// dimension, so hot paths can binarize without allocating.
//
//smore:hotpath
func (a *Accumulator) MajorityInto(v *Vector) {
	if v.dim != a.dim {
		panic("hdc: accumulator dimension mismatch")
	}
	if !a.dirty {
		a.majorityStaged(v)
		return
	}
	a.flush()
	for wi := range v.words {
		c := (*[WordBits]int32)(a.counts[wi*WordBits:])
		var pos, zero uint64
		for j := 0; j < WordBits; j++ {
			// Branchless sign classification, total over int32:
			// cj > 0 iff its sign bit is clear and it is nonzero.
			// (Deriving the sign from -cj would misread MinInt32,
			// which is reachable via AddScaled's saturation rail.)
			cj := uint32(c[j])
			nonzero := uint64((cj | -cj) >> 31)
			pos |= (uint64(^cj>>31) & nonzero) << j
			zero |= (nonzero ^ 1) << j
		}
		v.words[wi] = pos | zero&a.ties[wi]
	}
}

// majorityStaged binarizes directly from the staging battery without
// expanding per-bit integers: counter i is 2*ones_i - staged, so bit i is 1
// iff ones_i > staged/2, with a tie exactly when staged is even and
// ones_i == staged/2. The plane-vs-constant comparison runs word-parallel
// over only the planes the staged count can have reached.
func (a *Accumulator) majorityStaged(v *Vector) {
	if a.staged == 0 {
		copy(v.words, a.ties) // every counter is zero: all ties
		return
	}
	k := uint64(a.staged) / 2
	even := a.staged%2 == 0
	top := a.usedPlanes()
	var ps [stagePlanes][]uint64
	var km [stagePlanes]uint64
	for p := 0; p < top; p++ {
		ps[p] = a.plane(p)
		km[p] = -(k >> p & 1)
	}
	for wi := range v.words {
		// MSB-first compare of the bit-sliced ones-count against k.
		gt, eq := uint64(0), ^uint64(0)
		for p := top - 1; p >= 0; p-- {
			pw := ps[p][wi]
			gt |= eq & pw &^ km[p]
			eq &= ^(pw ^ km[p])
		}
		w := gt
		if even {
			w |= eq & a.ties[wi]
		}
		v.words[wi] = w
	}
}

// Reset zeroes all counters. Only the staging planes the current batch can
// have touched are cleared, so resetting between small bundles (the encode
// hot path) costs a few cache lines, not the whole battery.
func (a *Accumulator) Reset() {
	if a.dirty {
		clear(a.counts)
		a.dirty = false
	}
	if a.staged != 0 {
		clear(a.planes[:a.usedPlanes()*a.dim/WordBits])
		a.staged = 0
	}
}

// Bundle is a convenience wrapper that majority-bundles vs with equal
// weight. It panics if vs is empty or dimensions disagree.
func Bundle(vs ...Vector) Vector {
	if len(vs) == 0 {
		panic("hdc: Bundle of no vectors")
	}
	acc := NewAccumulator(vs[0].dim)
	acc.AddRows(vs...)
	return acc.Majority()
}

// splitmix64 is the SplitMix64 finalizer, used as a cheap deterministic
// index hash for tie-breaking.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
