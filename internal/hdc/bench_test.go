package hdc

import (
	"fmt"
	"testing"
)

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

// BenchmarkAccumulatorAddWeighted adds n rows at dim 4096 with weights in
// [1.1, 1.5), the range AdaptBatch's similarity weights fall in, through
// each of AddWeighted's two paths: one Add per row, and the bit-sliced
// batch. The crossover between them sets addWeightedMinRows.
func BenchmarkAccumulatorAddWeighted(b *testing.B) {
	rng := testRNG(105)
	for _, n := range []int{1, 16, 32, 64, 1024} {
		rows := make([]Vector, n)
		weights := make([]float64, n)
		q := make([]int32, n)
		var used int32
		for i := range rows {
			rows[i] = Random(rng, benchDim)
			weights[i] = 1.1 + 0.4*rng.Float64()
			q[i] = quantize(weights[i])
			used |= q[i]
		}
		acc := NewAccumulator(benchDim)
		paths := []struct {
			name string
			add  func()
		}{
			{"per-row", func() {
				for i, v := range rows {
					acc.Add(v, weights[i])
				}
			}},
			{"batched", func() { acc.addBits(rows, q, used) }},
		}
		for _, p := range paths {
			b.Run(fmt.Sprintf("rows=%d/%s", n, p.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					acc.Reset()
					p.add()
				}
			})
		}
	}
}
