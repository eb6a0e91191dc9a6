// Package hdc implements bit-packed binary hypervectors and the core
// hyperdimensional-computing operations SMORE builds on: XOR binding,
// circular permutation, majority bundling, and Hamming/cosine similarity.
//
// A hypervector of dimension D (D > 0, multiple of 64) is stored as D/64
// uint64 words, bit i living at words[i/64] >> (i%64) & 1. Binary bits map
// to the bipolar values {0 -> -1, 1 -> +1}, which is why cosine similarity
// reduces to 1 - 2*hamming/D.
package hdc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// WordBits is the number of bits per storage word.
const WordBits = 64

// MaxDim bounds the dimension accepted by deserialization so a corrupt or
// adversarial header cannot trigger a huge allocation.
const MaxDim = 1 << 24

// Vector is a dense binary hypervector. The zero value is unusable; create
// vectors with New, Random, or UnmarshalBinary.
type Vector struct {
	dim   int
	words []uint64
}

// New returns an all-zero vector of the given dimension. dim must be
// positive and a multiple of WordBits.
func New(dim int) Vector {
	if err := CheckDim(dim); err != nil {
		panic(err)
	}
	return Vector{dim: dim, words: make([]uint64, dim/WordBits)}
}

// CheckDim reports whether dim is a legal hypervector dimension.
func CheckDim(dim int) error {
	if dim <= 0 || dim%WordBits != 0 {
		return fmt.Errorf("hdc: dimension %d must be a positive multiple of %d", dim, WordBits)
	}
	if dim > MaxDim {
		return fmt.Errorf("hdc: dimension %d exceeds maximum %d", dim, MaxDim)
	}
	return nil
}

// Random returns a vector with i.i.d. uniform bits drawn from rng.
func Random(rng *rand.Rand, dim int) Vector {
	v := New(dim)
	for i := range v.words {
		v.words[i] = rng.Uint64()
	}
	return v
}

// Dim returns the dimension in bits.
func (v Vector) Dim() int { return v.dim }

// Bit returns bit i as 0 or 1.
func (v Vector) Bit(i int) int {
	return int(v.words[i/WordBits] >> (i % WordBits) & 1)
}

// SetBit sets bit i to b (0 or 1).
func (v Vector) SetBit(i, b int) {
	if b&1 == 1 {
		v.words[i/WordBits] |= 1 << (i % WordBits)
	} else {
		v.words[i/WordBits] &^= 1 << (i % WordBits)
	}
}

// FlipBit inverts bit i.
func (v Vector) FlipBit(i int) {
	v.words[i/WordBits] ^= 1 << (i % WordBits)
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := Vector{dim: v.dim, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// CopyInto copies v's bits into dst, which must have the same dimension.
func (v Vector) CopyInto(dst *Vector) {
	mustSameDim(v, *dst)
	copy(dst.words, v.words)
}

// Equal reports whether v and u have identical dimension and bits.
func (v Vector) Equal(u Vector) bool {
	if v.dim != u.dim {
		return false
	}
	for i, w := range v.words {
		if w != u.words[i] {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits.
func (v Vector) PopCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Bind returns the element-wise XOR of v and u (bipolar multiplication).
// Binding is its own inverse: Bind(Bind(a,b), b) == a.
func (v Vector) Bind(u Vector) Vector {
	out := New(v.dim)
	v.BindInto(u, &out)
	return out
}

// BindInto XORs v and u into dst, which must have the same dimension.
func (v Vector) BindInto(u Vector, dst *Vector) {
	mustSameDim(v, u)
	mustSameDim(v, *dst)
	d := dst.words
	a, b := v.words[:len(d)], u.words[:len(d)]
	for i := range d {
		d[i] = a[i] ^ b[i]
	}
}

// Permute returns v circularly rotated by k positions: the bit at index i
// moves to index (i+k) mod Dim. Negative k rotates the other way, so
// Permute(k) followed by Permute(-k) is the identity.
func (v Vector) Permute(k int) Vector {
	out := New(v.dim)
	v.PermuteInto(k, &out)
	return out
}

// PermuteInto writes Permute(k) into dst. dst must have the same dimension
// as v and must not alias v's storage.
//
// The rotation runs word-at-a-time: a whole-word rotation is two copies of
// contiguous regions, and a sub-word bit shift walks the source exactly
// once as two contiguous segments (before and after the wrap point), so
// the inner loops carry the spilled high bits of the previous word into
// the next with no per-word modulus or wrap branch.
func (v Vector) PermuteInto(k int, dst *Vector) {
	mustSameDim(v, *dst)
	n := len(v.words)
	s := ((k % v.dim) + v.dim) % v.dim
	wordShift, bitShift := s/WordBits, uint(s%WordBits)
	if bitShift == 0 {
		// dst[i] = v[(i - wordShift) mod n]: two contiguous block copies.
		copy(dst.words[:wordShift], v.words[n-wordShift:])
		copy(dst.words[wordShift:], v.words[:n-wordShift])
		return
	}
	// dst[i] = v[j]<<bitShift | v[j-1]>>(64-bitShift) with j = (i - wordShift)
	// mod n. Only the wrap output j == 0 needs modular indexing; the two
	// remaining runs read adjacent source pairs directly.
	dst.words[wordShift] = v.words[0]<<bitShift | v.words[n-1]>>(WordBits-bitShift)
	shiftWords(dst.words[wordShift+1:], v.words, bitShift)
	shiftWords(dst.words[:wordShift], v.words[n-wordShift-1:], bitShift)
}

// shiftWords writes out[i] = src[i+1]<<s | src[i]>>(64-s) for every i, with
// 0 < s < 64; src must hold at least len(out)+1 words. Each source word is
// rotated once and carried forward: the low s bits of the rotated previous
// word are exactly the bits src[i]>>(64-s) contributes, so one rotate and a
// mask merge replace the two shifts, and the loop carries no bounds checks.
// It stays out of line: inlined into PermuteInto, the loop's registers spill.
//
//go:noinline
func shiftWords(out, src []uint64, s uint) {
	if len(out) == 0 {
		return
	}
	low := uint64(1)<<s - 1
	prev := bits.RotateLeft64(src[0], int(s))
	src = src[1 : len(out)+1]
	for i := range out {
		r := bits.RotateLeft64(src[i], int(s))
		out[i] = r&^low | prev&low
		prev = r
	}
}

// Hamming returns the number of bit positions where v and u differ.
func (v Vector) Hamming(u Vector) int {
	mustSameDim(v, u)
	n := 0
	for i, w := range v.words {
		n += bits.OnesCount64(w ^ u.words[i])
	}
	return n
}

// Cosine returns the cosine similarity of the bipolar interpretations of v
// and u, i.e. 1 - 2*Hamming/Dim. It lies in [-1, 1]; unrelated random
// vectors score near 0.
func (v Vector) Cosine(u Vector) float64 {
	return 1 - 2*float64(v.Hamming(u))/float64(v.dim)
}

func mustSameDim(a, b Vector) {
	if a.dim != b.dim {
		panic(fmt.Sprintf("hdc: dimension mismatch %d vs %d", a.dim, b.dim))
	}
}

const (
	magic      = "HDV1"
	headerSize = 8 // 4-byte magic + uint32 dim
)

// MarshalBinary serializes v as a 4-byte magic, little-endian uint32
// dimension, and the packed words in little-endian order.
func (v Vector) MarshalBinary() ([]byte, error) {
	if err := CheckDim(v.dim); err != nil {
		return nil, err
	}
	buf := make([]byte, headerSize+len(v.words)*8)
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(v.dim))
	for i, w := range v.words {
		binary.LittleEndian.PutUint64(buf[headerSize+i*8:], w)
	}
	return buf, nil
}

// UnmarshalBinary parses the format produced by MarshalBinary, validating
// the magic, dimension bounds, and payload length.
func (v *Vector) UnmarshalBinary(data []byte) error {
	if len(data) < headerSize {
		return fmt.Errorf("hdc: truncated vector: %d bytes", len(data))
	}
	if string(data[:4]) != magic {
		return fmt.Errorf("hdc: bad magic %q", data[:4])
	}
	dim := int(binary.LittleEndian.Uint32(data[4:]))
	if err := CheckDim(dim); err != nil {
		return err
	}
	want := headerSize + dim/WordBits*8
	if len(data) != want {
		return fmt.Errorf("hdc: payload length %d, want %d for dim %d", len(data), want, dim)
	}
	v.dim = dim
	v.words = make([]uint64, dim/WordBits)
	for i := range v.words {
		v.words[i] = binary.LittleEndian.Uint64(data[headerSize+i*8:])
	}
	return nil
}
