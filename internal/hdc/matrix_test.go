package hdc

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

func TestMatrixRowSharesStorage(t *testing.T) {
	m := NewMatrix(3, 128)
	row := m.Row(1)
	row.SetBit(5, 1)
	if m.Row(1).Bit(5) != 1 {
		t.Fatal("write through Row view did not reach the matrix")
	}
	if m.Row(0).PopCount() != 0 || m.Row(2).PopCount() != 0 {
		t.Fatal("row write leaked into a neighboring row")
	}
}

func TestMatrixSetRow(t *testing.T) {
	rng := testRNG(21)
	m := NewMatrix(4, 256)
	v := Random(rng, 256)
	m.SetRow(2, v)
	if !m.Row(2).Equal(v) {
		t.Fatal("SetRow did not copy the vector")
	}
	v.FlipBit(0)
	if m.Row(2).Equal(v) {
		t.Fatal("SetRow aliased the source instead of copying")
	}
}

// TestMatrixCosineIntoMatchesVectorCosine is the kernel's correctness
// contract: the packed, blocked scoring pass must be bit-equal to the
// per-row Vector.Cosine it replaces, including on dimensions larger than
// one cache block.
func TestMatrixCosineIntoMatchesVectorCosine(t *testing.T) {
	rng := testRNG(22)
	for _, dim := range []int{64, 512, 4096, blockWords*WordBits + 128} {
		rows := 7
		m := NewMatrix(rows, dim)
		for r := range rows {
			m.SetRow(r, Random(rng, dim))
		}
		q := Random(rng, dim)
		got := make([]float64, rows)
		m.CosineInto(q, got)
		for r := range rows {
			if want := q.Cosine(m.Row(r)); got[r] != want {
				t.Fatalf("dim %d row %d: CosineInto %v != Cosine %v", dim, r, got[r], want)
			}
		}
	}
}

func TestMatrixCosineIntoSelfAndComplement(t *testing.T) {
	rng := testRNG(23)
	m := NewMatrix(2, 256)
	v := Random(rng, 256)
	m.SetRow(0, v)
	inv := v.Clone()
	for i := range 256 {
		inv.FlipBit(i)
	}
	m.SetRow(1, inv)
	dst := []float64{math.NaN(), math.NaN()}
	m.CosineInto(v, dst)
	if dst[0] != 1 || dst[1] != -1 {
		t.Fatalf("self/complement scores = %v, want [1 -1]", dst)
	}
}

// TestBundleRowsIntoMatchesAccumulator pins the fused bundle kernel to the
// accumulator's semantics for every legal input count, odd and even (the
// even counts exercise the deterministic tie-break).
func TestBundleRowsIntoMatchesAccumulator(t *testing.T) {
	rng := testRNG(24)
	for s := 1; s <= BundleRowsMax; s++ {
		vs := make([]Vector, s)
		for i := range vs {
			vs[i] = Random(rng, 256)
		}
		acc := NewAccumulator(256)
		for _, v := range vs {
			acc.Add(v, 1)
		}
		want := acc.Majority()
		got := New(256)
		BundleRowsInto(&got, vs...)
		if !got.Equal(want) {
			t.Fatalf("BundleRowsInto of %d vectors diverged from Accumulator Majority", s)
		}
	}
}

func TestBundleRowsIntoAllEqualAndTies(t *testing.T) {
	rng := testRNG(25)
	v := Random(rng, 128)
	out := New(128)
	BundleRowsInto(&out, v, v, v)
	if !out.Equal(v) {
		t.Fatal("bundle of three copies must be the vector itself")
	}
	// Two complementary vectors tie on every bit: the result must be the
	// deterministic tie mask, exactly like the accumulator path.
	inv := v.Clone()
	for i := range 128 {
		inv.FlipBit(i)
	}
	acc := NewAccumulator(128)
	acc.Add(v, 1)
	acc.Add(inv, 1)
	want := acc.Majority()
	BundleRowsInto(&out, v, inv)
	if !out.Equal(want) {
		t.Fatal("all-ties bundle diverged from the accumulator tie-break")
	}
}

func TestBundleRowsIntoBounds(t *testing.T) {
	out := New(64)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty input", func() { BundleRowsInto(&out) })
	rng := testRNG(26)
	too := make([]Vector, BundleRowsMax+1)
	for i := range too {
		too[i] = Random(rng, 64)
	}
	mustPanic("too many inputs", func() { BundleRowsInto(&out, too...) })
	mustPanic("dimension mismatch", func() { BundleRowsInto(&out, Random(rng, 128)) })
}

func TestMajorityIntoMatchesMajority(t *testing.T) {
	// Staged-only, flushed, and mixed accumulators must all binarize the
	// same through MajorityInto as through Majority. Each fill reseeds so
	// both accumulators of a pair see identical vectors.
	for name, fill := range map[string]func(a *Accumulator){
		"staged": func(a *Accumulator) {
			rng := testRNG(27)
			for range 5 {
				a.Add(Random(rng, 256), 1)
			}
		},
		"flushed": func(a *Accumulator) {
			a.Add(Random(testRNG(28), 256), 2.5)
		},
		"mixed": func(a *Accumulator) {
			rng := testRNG(29)
			a.Add(Random(rng, 256), 2.5)
			a.Add(Random(rng, 256), 1)
		},
		"empty": func(a *Accumulator) {},
	} {
		a := NewAccumulator(256)
		b := NewAccumulator(256)
		fill(a)
		fill(b)
		want := a.Majority()
		got := New(256)
		b.MajorityInto(&got)
		if !got.Equal(want) {
			t.Fatalf("%s: MajorityInto diverged from Majority", name)
		}
	}
}

// TestWideStagingMatchesFlushedCounts drives more unit adds than the
// staging battery holds, asserting the staged-only binarization and
// the flushed path agree at every count up to past the staging cap.
func TestWideStagingMatchesFlushedCounts(t *testing.T) {
	rng := testRNG(28)
	vs := make([]Vector, stageCap+3)
	for i := range vs {
		vs[i] = Random(rng, 128)
	}
	staged := NewAccumulator(128)
	oracle := NewAccumulator(128)
	for i, v := range vs {
		staged.Add(v, 1)
		// The oracle goes through the general fixed-point path, which
		// flushes immediately; weight 1 quantizes identically.
		oracle.Add(v, 1)
		oracle.flush()
		if got, want := staged.Majority(), oracle.Majority(); !got.Equal(want) {
			t.Fatalf("after %d adds: staged majority diverged from flushed", i+1)
		}
	}
}

// TestAddRowsMatchesAdd pins AddRows to one Add(v, 1) per row: from empty,
// partly staged, nearly full and flushed starting states, and for row counts
// on both sides of the eight-row groups and the staging cap, the two
// accumulators must end in the same internal state, not only the same
// majority.
func TestAddRowsMatchesAdd(t *testing.T) {
	const dim = 192
	rng := testRNG(30)
	rows := make([]Vector, 600)
	for i := range rows {
		rows[i] = Random(rng, dim)
	}
	for _, pre := range []int{0, 1, 7, 200, 250, 254, stageCap} {
		for _, weighted := range []bool{false, true} {
			for _, k := range []int{0, 1, 7, 8, 9, 62, 64, 255, 256, 300, 600} {
				want, got := NewAccumulator(dim), NewAccumulator(dim)
				for _, acc := range []*Accumulator{want, got} {
					if weighted {
						acc.Add(rows[599], 2.5)
					}
					for _, v := range rows[:pre] {
						acc.Add(v, -1)
					}
				}
				for _, v := range rows[:k] {
					want.Add(v, 1)
				}
				got.AddRows(rows[:k]...)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pre=%d weighted=%v k=%d: AddRows state diverged from per-row Add", pre, weighted, k)
				}
				if !got.Majority().Equal(want.Majority()) {
					t.Fatalf("pre=%d weighted=%v k=%d: AddRows majority diverged", pre, weighted, k)
				}
			}
		}
	}
}

// TestAddRowsDimMismatchLeavesStateUntouched checks that a bad row anywhere
// in the batch panics before any row is added.
func TestAddRowsDimMismatchLeavesStateUntouched(t *testing.T) {
	rng := testRNG(31)
	rows := make([]Vector, 20)
	for i := range rows {
		rows[i] = Random(rng, 128)
	}
	rows[17] = New(64)
	acc := NewAccumulator(128)
	acc.Add(Random(rng, 128), 1)
	before := acc.Majority()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AddRows accepted a row of the wrong dimension")
			}
		}()
		acc.AddRows(rows...)
	}()
	if acc.staged != 1 || !acc.Majority().Equal(before) {
		t.Fatal("AddRows changed the accumulator before rejecting a row")
	}
}

// addWeightedStarts are AddWeighted's starting states: empty, staged (±1
// adds still in the battery), dirty (after a fractional add) and near-rail
// (every counter within 2^24 of ±2^31, loaded with UnmarshalBinary, which
// forces the per-row fallback for any batch holding a 2^20 weight).
func addWeightedStarts(t *testing.T, rows []Vector) []struct {
	name string
	init func(*Accumulator)
} {
	t.Helper()
	dim := rows[0].Dim()
	rail := make([]byte, MarshaledSize(dim))
	copy(rail, accMagic)
	binary.LittleEndian.PutUint32(rail[4:], uint32(dim))
	rng := testRNG(33)
	for i := range dim {
		c := int32(math.MaxInt32 - rng.IntN(1<<24))
		if i%2 == 1 {
			c = math.MinInt32 + int32(rng.IntN(1<<24))
		}
		binary.LittleEndian.PutUint32(rail[accHeaderSize+i*4:], uint32(c))
	}
	return []struct {
		name string
		init func(*Accumulator)
	}{
		{"empty", func(*Accumulator) {}},
		{"staged", func(a *Accumulator) {
			for _, v := range rows[590:597] {
				a.Add(v, -1)
			}
			a.Add(rows[597], 1)
		}},
		{"dirty", func(a *Accumulator) { a.Add(rows[598], 2.5) }},
		{"near-rail", func(a *Accumulator) {
			if err := a.UnmarshalBinary(rail); err != nil {
				t.Fatal(err)
			}
		}},
	}
}

// TestAddWeightedMatchesAdd pins AddWeighted to one Add per row: from every
// starting state, for batch sizes on both sides of the crossover and of a
// 255-row chunk, the marshaled counters and the majority must be equal.
// The positive weights take the batched path wherever the batch is large
// enough and the start is off the rail; the mixed ones hold negative
// weights and the rail ones sum past int32, so both take the fallback.
func TestAddWeightedMatchesAdd(t *testing.T) {
	const dim = 192
	rng := testRNG(32)
	rows := make([]Vector, 600)
	for i := range rows {
		rows[i] = Random(rng, dim)
	}
	weightSets := map[string][]float64{
		"positive": {1, 0, 1.0 / 1024, 0.3, 1.17, 2.5, 7.0 / 3, 1.5},
		"mixed":    {1, -1, 0, -0.6, 1.3, 1.0 / 1024, -2.5},
		"rail":     {1 << 20},
	}
	for _, start := range addWeightedStarts(t, rows) {
		for name, set := range weightSets {
			for _, n := range []int{0, 1, addWeightedMinRows - 1, addWeightedMinRows, 255, 256, 600} {
				weights := make([]float64, n)
				for i := range weights {
					weights[i] = set[i%len(set)]
				}
				if n > 0 {
					weights[n/2] = 1 << 20
				}
				want, got := NewAccumulator(dim), NewAccumulator(dim)
				start.init(want)
				start.init(got)
				for i, v := range rows[:n] {
					want.Add(v, weights[i])
				}
				got.AddWeighted(rows[:n], weights)
				if !got.Majority().Equal(want.Majority()) {
					t.Fatalf("%s/%s/n=%d: AddWeighted majority diverged from per-row Add", start.name, name, n)
				}
				gb, err1 := got.MarshalBinary()
				wb, err2 := want.MarshalBinary()
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if !bytes.Equal(gb, wb) {
					t.Fatalf("%s/%s/n=%d: AddWeighted counters diverged from per-row Add", start.name, name, n)
				}
			}
		}
	}
}

// TestAddWeightedRejectsLeaveStateUntouched checks that a length, dimension
// or weight error anywhere in a batch panics before any row is added.
func TestAddWeightedRejectsLeaveStateUntouched(t *testing.T) {
	const dim = 192
	rng := testRNG(34)
	rows := make([]Vector, 600)
	for i := range rows {
		rows[i] = Random(rng, dim)
	}
	weights := make([]float64, 100)
	for i := range weights {
		weights[i] = 1.25
	}
	bad := func(i int, w float64) []float64 {
		out := append([]float64(nil), weights...)
		out[i] = w
		return out
	}
	shortRow := append(append([]Vector(nil), rows[:99]...), New(64))
	calls := map[string]func(*Accumulator){
		"length":    func(a *Accumulator) { a.AddWeighted(rows[:100], weights[:99]) },
		"dimension": func(a *Accumulator) { a.AddWeighted(shortRow, weights) },
		"NaN":       func(a *Accumulator) { a.AddWeighted(rows[:100], bad(99, math.NaN())) },
		"+Inf":      func(a *Accumulator) { a.AddWeighted(rows[:100], bad(50, math.Inf(1))) },
		"2^21":      func(a *Accumulator) { a.AddWeighted(rows[:100], bad(99, -(1<<21))) },
	}
	for _, start := range addWeightedStarts(t, rows) {
		for name, call := range calls {
			want, got := NewAccumulator(dim), NewAccumulator(dim)
			start.init(want)
			start.init(got)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s/%s: AddWeighted did not panic", start.name, name)
					}
				}()
				call(got)
			}()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: AddWeighted changed the accumulator before panicking", start.name, name)
			}
			gb, err1 := got.MarshalBinary()
			wb, err2 := want.MarshalBinary()
			if err1 != nil || err2 != nil || !bytes.Equal(gb, wb) {
				t.Fatalf("%s/%s: marshaled state changed by a rejected batch", start.name, name)
			}
		}
	}
}
