//go:build race

package serve

// raceEnabled gates allocation pins: under the race detector sync.Pool
// deliberately drops items to expose races, so zero-alloc steady states do
// not hold there.
const raceEnabled = true
