package encode

import (
	"math"
	"testing"
)

// FuzzEncodeWindow feeds arbitrary sensor readings (including NaN, ±Inf,
// and out-of-range values) through the encoder and checks the invariants
// Encode promises for any well-shaped window: no panics, a vector of the
// configured dimension, determinism across repeated calls, quantization
// staying inside [0, Levels), and bit-for-bit agreement with the
// brute-force oracle. Windows run up to 384 steps, so the gram block fills
// several times and the window bundle crosses the 255-add staging cap.
func FuzzEncodeWindow(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(16), []byte{0xff, 0x00, 0x80, 0x7f})
	f.Add(uint8(200), []byte{0x10, 0xfe, 0x90, 0x33, 0xc0, 0x01, 0x7e})
	f.Fuzz(func(t *testing.T, steps uint8, raw []byte) {
		cfg := Config{Dim: 128, Sensors: 2, Levels: 8, NGram: 2, Min: -2, Max: 2, Seed: 5}
		enc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nSteps := int(steps)*3/2 + cfg.NGram // always long enough to encode
		window := make([][]float64, nSteps)
		k := 0
		next := func() float64 {
			if len(raw) == 0 {
				return 0
			}
			b := raw[k%len(raw)]
			k++
			switch b {
			case 0xfe:
				return math.NaN()
			case 0xfd:
				return math.Inf(1)
			case 0xfc:
				return math.Inf(-1)
			}
			return (float64(b) - 127.5) / 16 // spans well past [Min, Max]
		}
		for t := range window {
			row := make([]float64, cfg.Sensors)
			for s := range row {
				row[s] = next()
				if l := enc.Quantize(row[s]); l < 0 || l >= cfg.Levels {
					panic("quantize out of range") // caught as fuzz failure
				}
			}
			window[t] = row
		}
		a, err := enc.Encode(window)
		if err != nil {
			t.Fatalf("Encode rejected a well-shaped window: %v", err)
		}
		if a.Dim() != cfg.Dim {
			t.Fatalf("Encode returned dim %d, want %d", a.Dim(), cfg.Dim)
		}
		b, err := enc.Encode(window)
		if err != nil || !a.Equal(b) {
			t.Fatalf("Encode is not deterministic: %v", err)
		}
		if !a.Equal(encodeReference(enc, window)) {
			t.Fatalf("%d-step window diverged from the brute-force oracle", nSteps)
		}
	})
}
