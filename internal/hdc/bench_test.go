package hdc

import "testing"

const benchDim = 4096

func BenchmarkBind(b *testing.B) {
	rng := testRNG(100)
	x, y, dst := Random(rng, benchDim), Random(rng, benchDim), New(benchDim)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		x.BindInto(y, &dst)
	}
}

func BenchmarkPermute(b *testing.B) {
	rng := testRNG(101)
	x, dst := Random(rng, benchDim), New(benchDim)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		x.PermuteInto(17, &dst)
	}
}

func BenchmarkHamming(b *testing.B) {
	rng := testRNG(102)
	x, y := Random(rng, benchDim), Random(rng, benchDim)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		x.Hamming(y)
	}
}

func BenchmarkBundle(b *testing.B) {
	rng := testRNG(103)
	vs := make([]Vector, 16)
	for i := range vs {
		vs[i] = Random(rng, benchDim)
	}
	acc := NewAccumulator(benchDim)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		acc.Reset()
		for _, v := range vs {
			acc.Add(v, 1)
		}
		acc.Majority()
	}
}

// BenchmarkAccumulatorAddRows bundles one window's worth of n-grams (62 rows
// at dim 4096, a 64-step window with trigrams) through the carry-save path.
func BenchmarkAccumulatorAddRows(b *testing.B) {
	rng := testRNG(104)
	vs := make([]Vector, 62)
	for i := range vs {
		vs[i] = Random(rng, benchDim)
	}
	acc := NewAccumulator(benchDim)
	dst := New(benchDim)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		acc.Reset()
		acc.AddRows(vs...)
		acc.MajorityInto(&dst)
	}
}
