package hdc

// BundleRowsMax is the largest vector count BundleRowsInto accepts: its
// bit-sliced ones-counter lives in four per-word registers, which hold
// counts up to 15.
const BundleRowsMax = 15

// BundleRowsInto writes the equal-weight majority bundle of vs into dst,
// byte-identical to adding every vector to a fresh Accumulator with weight
// 1 and binarizing (including the deterministic tie-break on even counts),
// but in a single register-resident pass with no staging memory touched at
// all. Counts up to nine inputs run through unrolled carry-save-adder
// (sideways addition) reductions — the per-word cost is a handful of
// logic ops, not a bit-serial ripple — and larger counts fall back to a
// generic four-plane ripple. This is the spatial-encoding kernel behind
// Encode's per-timestep bundle. dst must match the inputs' dimension; it
// may alias one of them.
//
//smore:hotpath
func BundleRowsInto(dst *Vector, vs ...Vector) {
	s := len(vs)
	if s < 1 || s > BundleRowsMax {
		panic("hdc: BundleRowsInto needs 1 to BundleRowsMax vectors")
	}
	for _, v := range vs {
		mustSameDim(*dst, v)
	}
	d, t := dst.words, tieWords(dst.dim)
	switch s {
	case 1:
		copy(d, vs[0].words)
	case 2:
		bundle2(d, t, vs)
	case 3:
		bundle3(d, vs)
	case 4:
		bundle4(d, t, vs)
	case 5:
		bundle5(d, vs)
	case 6:
		bundle6(d, t, vs)
	case 7:
		bundle7(d, vs)
	case 8:
		bundle8(d, t, vs)
	case 9:
		bundle9(d, vs)
	default:
		bundleRipple(d, t, vs)
	}
}

// csa is a full adder over bit-sliced lanes: sum carries weight 1, carry
// weight 2. Five ops turn three weight-w values into two.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, a&b | u&c
}

// Two inputs: count > 1 needs both bits; count == 1 never ties, count == 0
// loses, so the only tie is the both-or-neither middle, count == 1.
func bundle2(d, ties []uint64, vs []Vector) {
	n := len(d)
	a, b, ties := vs[0].words[:n], vs[1].words[:n], ties[:n]
	for i := range d {
		x, y := a[i], b[i]
		d[i] = x&y | (x^y)&ties[i]
	}
}

// Three inputs: the textbook majority-of-3, no ties possible.
func bundle3(d []uint64, vs []Vector) {
	n := len(d)
	a, b, c := vs[0].words[:n], vs[1].words[:n], vs[2].words[:n]
	for i := range d {
		x, y, z := a[i], b[i], c[i]
		d[i] = x&y | z&(x^y)
	}
}

// Four inputs, threshold 2: count = 4f + 2tw + o; count > 2 iff f or
// (tw and o); count == 2 (the tie) iff tw alone.
func bundle4(d, ties []uint64, vs []Vector) {
	n := len(d)
	a, b, c, e := vs[0].words[:n], vs[1].words[:n], vs[2].words[:n], vs[3].words[:n]
	ties = ties[:n]
	for i := range d {
		s1, c1 := csa(a[i], b[i], c[i])
		o := s1 ^ e[i]
		c2 := s1 & e[i]
		tw := c1 ^ c2
		f := c1 & c2
		d[i] = f | tw&o | tw&^o&^f&ties[i]
	}
}

// Five inputs, threshold 2: count = 4f + 2tw + o > 2 iff f or (tw and o).
func bundle5(d []uint64, vs []Vector) {
	n := len(d)
	a, b, c, e, g := vs[0].words[:n], vs[1].words[:n], vs[2].words[:n], vs[3].words[:n], vs[4].words[:n]
	for i := range d {
		s1, c1 := csa(a[i], b[i], c[i])
		o, c2 := csa(s1, e[i], g[i])
		tw := c1 ^ c2
		f := c1 & c2
		d[i] = f | tw&o
	}
}

// Six inputs, threshold 3: count = 4f + 2tw + o > 3 iff f; tie at 3 iff
// tw and o without f.
func bundle6(d, ties []uint64, vs []Vector) {
	n := len(d)
	a, b, c, e, g, h := vs[0].words[:n], vs[1].words[:n], vs[2].words[:n], vs[3].words[:n], vs[4].words[:n], vs[5].words[:n]
	ties = ties[:n]
	for i := range d {
		s1, c1 := csa(a[i], b[i], c[i])
		s2, c2 := csa(e[i], g[i], h[i])
		o := s1 ^ s2
		c3 := s1 & s2
		tw, f := csa(c1, c2, c3)
		d[i] = f | tw&o&ties[i]
	}
}

// Seven inputs, threshold 3: count = 4f + 2tw + o > 3 iff f, no ties.
func bundle7(d []uint64, vs []Vector) {
	n := len(d)
	a, b, c, e, g, h := vs[0].words[:n], vs[1].words[:n], vs[2].words[:n], vs[3].words[:n], vs[4].words[:n], vs[5].words[:n]
	j := vs[6].words[:n]
	for i := range d {
		s1, c1 := csa(a[i], b[i], c[i])
		s2, c2 := csa(e[i], g[i], h[i])
		_, c3 := csa(s1, s2, j[i])
		_, f := csa(c1, c2, c3)
		d[i] = f
	}
}

// Eight inputs, threshold 4: count = 8e + 4fo + 2tw + o; count > 4 iff e
// or fo with any lower bit; the tie at 4 is fo alone.
func bundle8(d, ties []uint64, vs []Vector) {
	n := len(d)
	a, b, c, e8, g, h := vs[0].words[:n], vs[1].words[:n], vs[2].words[:n], vs[3].words[:n], vs[4].words[:n], vs[5].words[:n]
	j, l, ties := vs[6].words[:n], vs[7].words[:n], ties[:n]
	for i := range d {
		s1, c1 := csa(a[i], b[i], c[i])
		s2, c2 := csa(e8[i], g[i], h[i])
		o, c3 := csa(s1, s2, j[i])
		c4 := o & l[i]
		o ^= l[i]
		t1, f1 := csa(c1, c2, c3)
		tw := t1 ^ c4
		f2 := t1 & c4
		fo := f1 ^ f2
		e := f1 & f2
		d[i] = e | fo&(tw|o) | fo&^(tw|o)&^e&ties[i]
	}
}

// Nine inputs, threshold 4: count > 4 iff the eights bit, or the fours bit
// with any lower bit set; odd count, so no ties.
func bundle9(d []uint64, vs []Vector) {
	n := len(d)
	a, b, c, e9, g, h := vs[0].words[:n], vs[1].words[:n], vs[2].words[:n], vs[3].words[:n], vs[4].words[:n], vs[5].words[:n]
	j, l, m := vs[6].words[:n], vs[7].words[:n], vs[8].words[:n]
	for i := range d {
		s1, c1 := csa(a[i], b[i], c[i])
		s2, c2 := csa(e9[i], g[i], h[i])
		s3, c3 := csa(j[i], l[i], m[i])
		o, c4 := csa(s1, s2, s3)
		t1, f1 := csa(c1, c2, c3)
		tw := t1 ^ c4
		f2 := t1 & c4
		fo := f1 ^ f2
		e := f1 & f2
		d[i] = e | fo&(tw|o)
	}
}

// bundleRipple is the generic fallback for 10..BundleRowsMax inputs: a
// four-register ripple add per input, then an MSB-first compare against
// the majority threshold.
func bundleRipple(d, ties []uint64, vs []Vector) {
	s := len(vs)
	k := uint64(s) / 2
	even := s%2 == 0
	k0, k1, k2, k3 := -(k & 1), -(k >> 1 & 1), -(k >> 2 & 1), -(k >> 3 & 1)
	for wi := range d {
		var c0, c1, c2, c3 uint64
		for _, v := range vs {
			w := v.words[wi]
			c3 ^= c2 & c1 & c0 & w
			c2 ^= c1 & c0 & w
			c1 ^= c0 & w
			c0 ^= w
		}
		gt, eq := uint64(0), ^uint64(0)
		gt |= eq & c3 &^ k3
		eq &= ^(c3 ^ k3)
		gt |= eq & c2 &^ k2
		eq &= ^(c2 ^ k2)
		gt |= eq & c1 &^ k1
		eq &= ^(c1 ^ k1)
		gt |= eq & c0 &^ k0
		eq &= ^(c0 ^ k0)
		w := gt
		if even {
			w |= eq & ties[wi]
		}
		d[wi] = w
	}
}
