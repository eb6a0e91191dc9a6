// Package fault is a deterministic, seeded fault-injection registry for
// chaos testing the serving stack. Code under test declares named injection
// points (fault.Maybe("persist.write"), fault.Sleep("stream.fold.slow"),
// fault.Writer("persist.torn", f)); a test or the -fault flag arms a subset
// of them with a spec string, and armed points fire deterministically from a
// per-point splitmix64 stream seeded by Enable.
//
// The disabled path is a single atomic load returning immediately, so
// instrumented production code pays nothing when no faults are armed. Hooks
// live only on cold paths (atomic file writes, stream fold/encode closures) —
// never inside //smore:hotpath kernels.
//
// Spec grammar (comma-separated entries):
//
//	point[:p=PROB][:after=N][:times=M][:delay=DUR]
//
// p is the per-call fire probability (default 1), after skips the first N
// eligible calls, times caps total fires (0 = unlimited), delay is the stall
// duration for Sleep points. Example:
//
//	persist.sync:times=1,stream.fold.slow:delay=150ms,stream.fold.err:p=0.5:after=3
//
// Determinism: a point's fire/no-fire sequence depends only on the seed, the
// point name, and the order of calls against that point. Concurrent callers
// still draw from one serialized stream; only their interleaving varies.
package fault

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Points is the registry of known injection points. Enable rejects names
// outside this table so a typo in a -fault spec fails fast instead of
// silently arming nothing.
var Points = map[string]string{
	"persist.write":     "atomic file write (checkpoint or saved bundle) returns a disk error",
	"persist.torn":      "atomic file write is torn: only a prefix reaches disk, reported as success",
	"persist.sync":      "fsync of an atomically written file fails",
	"persist.rename":    "rename of an atomically written file into place fails",
	"stream.encode.err": "streaming micro-batch encode fails",
	"stream.fold.err":   "streaming fold fails before touching the model",
	"stream.fold.slow":  "streaming fold stalls for the configured delay",
}

// Error is the failure Maybe injects; Point names the injection site.
type Error struct{ Point string }

func (e *Error) Error() string { return "fault: injected failure at " + e.Point }

// point is one armed injection site. The mutex serializes the draw stream so
// concurrent callers consume deterministic positions of it.
type point struct {
	prob  float64
	after int64
	times int64
	delay time.Duration

	mu    sync.Mutex
	calls int64
	fired int64
	rng   uint64
}

// splitmix64 advances the per-point stream; the output is uniform in
// [0, 1<<64).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// fire consumes one position of the point's stream and reports whether this
// call injects.
func (p *point) fire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if p.calls <= p.after {
		return false
	}
	if p.times > 0 && p.fired >= p.times {
		return false
	}
	if p.prob < 1 {
		draw := float64(splitmix64(&p.rng)>>11) / (1 << 53)
		if draw >= p.prob {
			return false
		}
	}
	p.fired++
	return true
}

// frac draws a deterministic tear fraction in [0.1, 0.9) for torn writes —
// never 0 (an empty file is trivially invalid) and never 1 (not torn).
func (p *point) frac() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return 0.1 + 0.8*float64(splitmix64(&p.rng)>>11)/(1<<53)
}

// registry is an immutable armed-point set, swapped wholesale by Enable so
// readers never lock.
type registry struct {
	points map[string]*point
	spec   string
}

var (
	armed atomic.Bool
	reg   atomic.Pointer[registry]
)

// Spec returns the normalized spec of the armed points, "" when disabled.
func Spec() string {
	if !armed.Load() {
		return ""
	}
	if r := reg.Load(); r != nil {
		return r.spec
	}
	return ""
}

// Disable disarms every point.
func Disable() {
	armed.Store(false)
	reg.Store(nil)
}

// Enable parses spec and arms exactly the points it names, seeding each
// point's draw stream from seed and the point name. An empty spec disables
// injection. Unknown point names and malformed options are errors.
func Enable(spec string, seed uint64) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		Disable()
		return nil
	}
	points := map[string]*point{}
	names := make([]string, 0, 4)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		name := parts[0]
		if _, ok := Points[name]; !ok {
			return fmt.Errorf("fault: unknown injection point %q", name)
		}
		if _, dup := points[name]; dup {
			return fmt.Errorf("fault: injection point %q armed twice", name)
		}
		p := &point{prob: 1}
		for _, kv := range parts[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("fault: %s: option %q is not key=value", name, kv)
			}
			var err error
			switch k {
			case "p":
				p.prob, err = strconv.ParseFloat(v, 64)
				if err == nil && (p.prob < 0 || p.prob > 1) {
					err = fmt.Errorf("probability %v outside [0,1]", p.prob)
				}
			case "after":
				p.after, err = strconv.ParseInt(v, 10, 64)
			case "times":
				p.times, err = strconv.ParseInt(v, 10, 64)
			case "delay":
				p.delay, err = time.ParseDuration(v)
			default:
				err = fmt.Errorf("unknown option %q", k)
			}
			if err != nil {
				return fmt.Errorf("fault: %s: %s=%s: %w", name, k, v, err)
			}
		}
		// Seed per point from the global seed and the name, so arming extra
		// points does not perturb an existing point's sequence.
		h := fnv.New64a()
		h.Write([]byte(name))
		p.rng = seed ^ h.Sum64()
		points[name] = p
		names = append(names, entry)
	}
	if len(points) == 0 {
		Disable()
		return nil
	}
	sort.Strings(names)
	reg.Store(&registry{points: points, spec: strings.Join(names, ",")})
	armed.Store(true)
	return nil
}

// lookup resolves an armed point; nil when injection is off or the point is
// not armed. Callers must have checked armed first for the fast path.
func lookup(name string) *point {
	r := reg.Load()
	if r == nil {
		return nil
	}
	p, ok := r.points[name]
	if !ok {
		if _, known := Points[name]; !known {
			panic("fault: hook references unknown injection point " + name)
		}
		return nil
	}
	return p
}

// Maybe returns an injected error when the named point is armed and fires,
// nil otherwise. The disabled path is one atomic load.
func Maybe(name string) error {
	if !armed.Load() {
		return nil
	}
	p := lookup(name)
	if p == nil || !p.fire() {
		return nil
	}
	return &Error{Point: name}
}

// Sleep stalls for the point's configured delay when it is armed and fires.
func Sleep(name string) {
	if !armed.Load() {
		return
	}
	p := lookup(name)
	if p == nil || p.delay <= 0 || !p.fire() {
		return
	}
	time.Sleep(p.delay)
}

// Writer wraps w with a torn-write injector when the named point is armed
// and fires: only a deterministic prefix of the first Write reaches w, yet
// every Write reports success — modeling a write the kernel acknowledged but
// never fully persisted. When the point does not fire, w is returned as-is.
func Writer(name string, w io.Writer) io.Writer {
	if !armed.Load() {
		return w
	}
	p := lookup(name)
	if p == nil || !p.fire() {
		return w
	}
	return &tornWriter{w: w, frac: p.frac()}
}

// tornWriter forwards a prefix of the first write and swallows everything
// after it, always claiming success.
type tornWriter struct {
	w    io.Writer
	frac float64
	torn bool
}

func (t *tornWriter) Write(p []byte) (int, error) {
	if t.torn {
		return len(p), nil
	}
	t.torn = true
	if n := int(float64(len(p)) * t.frac); n > 0 {
		if _, err := t.w.Write(p[:n]); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}
