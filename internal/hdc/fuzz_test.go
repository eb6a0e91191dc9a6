package hdc

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzVectorRoundTrip checks that any byte slice either fails to parse or
// parses into a vector that re-serializes to exactly the same bytes, and
// that parsing never panics or over-allocates.
func FuzzVectorRoundTrip(f *testing.F) {
	rng := testRNG(0xf022)
	for _, dim := range []int{64, 128, 1024} {
		buf, err := Random(rng, dim).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte("HDV1"))
	f.Add([]byte("HDV1\x40\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var v Vector
		if err := v.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of a successfully parsed vector failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip not byte-identical: in %d bytes, out %d bytes", len(data), len(out))
		}
		var u Vector
		if err := u.UnmarshalBinary(out); err != nil || !u.Equal(v) {
			t.Fatalf("second round trip diverged: %v", err)
		}
	})
}

// fuzzVector builds a vector of at most maxWords words from raw bytes,
// padding the tail with zeros. It returns a vector of at least one word.
func fuzzVector(data []byte, maxWords int) Vector {
	n := (len(data) + 7) / 8
	if n < 1 {
		n = 1
	}
	if n > maxWords {
		n = maxWords
	}
	v := New(n * WordBits)
	buf := make([]byte, n*8)
	copy(buf, data)
	for i := range v.words {
		v.words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return v
}

// FuzzPermuteRoundTrip checks the word-level rotate against its algebraic
// laws for arbitrary bit patterns and shifts: Permute(k) then Permute(-k)
// is the identity, popcount is invariant, and the fast path agrees with the
// bit-at-a-time reference implementation.
func FuzzPermuteRoundTrip(f *testing.F) {
	rng := testRNG(0xbeef)
	for _, dim := range []int{64, 192, 512} {
		buf, err := Random(rng, dim).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[8:], 17)
		f.Add(buf[8:], -64)
	}
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		v := fuzzVector(data, 64)
		got := v.Permute(k)
		if got.PopCount() != v.PopCount() {
			t.Fatalf("Permute(%d) changed popcount at dim %d", k, v.Dim())
		}
		if !got.Permute(-k).Equal(v) {
			t.Fatalf("Permute(%d) then Permute(%d) is not identity at dim %d", k, -k, v.Dim())
		}
		if want := permuteRef(v, k); !got.Equal(want) {
			t.Fatalf("Permute(%d) disagrees with bit-at-a-time reference at dim %d", k, v.Dim())
		}
	})
}

// FuzzAccumulatorUnmarshal checks that arbitrary bytes either fail to parse
// or parse into an accumulator that re-serializes byte-identically and stays
// fully usable (Majority, further adds). Allocation is bounded by the input
// length because UnmarshalBinary validates the payload length against the
// header's dimension before allocating.
func FuzzAccumulatorUnmarshal(f *testing.F) {
	rng := testRNG(0x5a7e)
	for _, dim := range []int{64, 256} {
		acc := NewAccumulator(dim)
		for range 9 {
			acc.Add(Random(rng, dim), 1)
		}
		acc.Add(Random(rng, dim), -2.5)
		buf, err := acc.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte("HAC1"))
	f.Add([]byte("HAC1\x40\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var a Accumulator
		if err := a.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := a.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of a successfully parsed accumulator failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip not byte-identical: in %d bytes, out %d bytes", len(data), len(out))
		}
		// The loaded accumulator must keep working: a further unit add goes
		// through the staging battery and Majority must not panic.
		a.Add(New(a.Dim()), 1)
		a.Majority()
	})
}

// refAccumulator is the scalar float64-per-bit accumulator the word-parallel
// implementation replaced, kept as a differential-testing oracle.
type refAccumulator struct {
	counts []float64
}

func (r *refAccumulator) add(v Vector, weight float64) {
	for i := range r.counts {
		if v.Bit(i) == 1 {
			r.counts[i] += weight
		} else {
			r.counts[i] -= weight
		}
	}
}

func (r *refAccumulator) majority() Vector {
	v := New(len(r.counts))
	for i, c := range r.counts {
		switch {
		case c > 0:
			v.SetBit(i, 1)
		case c == 0:
			v.SetBit(i, int(splitmix64(uint64(i))&1))
		}
	}
	return v
}

// FuzzAccumulatorParity drives the word-parallel accumulator and the scalar
// reference through the same fuzzer-chosen op sequence and demands exactly
// equal Majority outputs, ties included. Weights are sixteenth-integers so
// both the fixed-point and the float64 arithmetic are exact and the two
// implementations must agree bit for bit. Op 0xfe adds a batch of 0 to 300
// random rows through AddRows, which the reference mirrors as unit adds, so
// batches can cross the staging cap after staged ±1 adds. Op 0xfd adds a
// batch of 0 to 300 random rows through AddWeighted, one sixteenth-integer
// weight byte per row (missing bytes weigh 0), which the reference mirrors
// one row at a time.
func FuzzAccumulatorParity(f *testing.F) {
	rng := testRNG(0xacc)
	seed := make([]byte, 80)
	for i := range seed {
		seed[i] = byte(rng.Uint64())
	}
	f.Add(seed)
	f.Add([]byte{0, 1, 2, 3, 255, 4, 128, 9})
	// A staged unit add, then batches of 200 and 100 rows: the second
	// crosses the staging cap part way.
	f.Add(append(append([]byte{16}, seed[:16]...), 0xfe, 200, 0, 0xfe, 100, 0))
	// A fractional add, then a weighted batch of 300 rows with positive odd
	// weight bytes: past the batched-path crossover, and 300 rows carry
	// weight bit 4, so that bit takes a 255-row chunk and a 45-row one.
	// Then a 40-row batch with negative weights.
	weighted := append(append([]byte{40}, seed[:16]...), 0xfd, 44, 1)
	for i := range 300 {
		weighted = append(weighted, byte(2*(i%64)+1))
	}
	weighted = append(weighted, 0xfd, 40, 0)
	for i := range 40 {
		weighted = append(weighted, byte(i*37))
	}
	f.Add(weighted)
	f.Fuzz(func(t *testing.T, data []byte) {
		const dim = 128
		acc := NewAccumulator(dim)
		ref := &refAccumulator{counts: make([]float64, dim)}
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch {
			case op == 0xff: // occasional reset
				acc.Reset()
				ref.counts = make([]float64, dim)
			case op == 0xfe: // a batch of unit rows
				var b [2]byte
				data = data[copy(b[:], data):]
				seed := binary.LittleEndian.Uint16(b[:])
				rows := make([]Vector, int(seed)%301)
				rowRNG := testRNG(uint64(seed))
				for i := range rows {
					rows[i] = Random(rowRNG, dim)
					ref.add(rows[i], 1)
				}
				acc.AddRows(rows...)
			case op == 0xfd: // a batch of weighted rows
				var b [2]byte
				data = data[copy(b[:], data):]
				seed := binary.LittleEndian.Uint16(b[:])
				rows := make([]Vector, int(seed)%301)
				weights := make([]float64, len(rows))
				wb := make([]byte, len(rows))
				data = data[copy(wb, data):]
				rowRNG := testRNG(uint64(seed))
				for i := range rows {
					rows[i] = Random(rowRNG, dim)
					weights[i] = float64(int8(wb[i])) / 16
					ref.add(rows[i], weights[i])
				}
				acc.AddWeighted(rows, weights)
			default:
				// Sixteenth-integer weight in [-8, 8): exactly
				// representable in both fixed point and float64.
				weight := float64(int8(op)) / 16
				v := New(dim)
				buf := make([]byte, dim/8)
				n := copy(buf, data)
				data = data[n:]
				for i := range v.words {
					v.words[i] = binary.LittleEndian.Uint64(buf[i*8:])
				}
				acc.Add(v, weight)
				ref.add(v, weight)
			}
			if !acc.Majority().Equal(ref.majority()) {
				t.Fatal("word-parallel Majority diverged from scalar reference")
			}
		}
	})
}
