package serve

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit: closed admits traffic,
// open rejects it for a cooldown, half-open admits exactly one probe batch
// whose fold outcome decides between closing and re-opening.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// breaker is a per-instance circuit breaker over streaming fold outcomes. A
// poisoned stream (a fold that always fails) would otherwise burn the
// queue: every accepted batch is paid for — encoded, locked, folded — only
// to be discarded and counted as lost. After threshold consecutive
// fold failures the circuit opens and stream/adapt answers 503 adapter_open
// (with a Retry-After hint) until the cooldown elapses; then one probe batch
// is admitted, and its fold outcome closes or re-opens the circuit.
//
// The outcome feed is asynchronous by nature: admission happens at enqueue
// time, the verdict at fold time. record therefore also accepts outcomes for
// batches admitted before the circuit opened; a failure while open simply
// refreshes the cooldown.
type breaker struct {
	threshold int           // consecutive fold failures that open the circuit; <= 0 disables
	cooldown  time.Duration // open duration before a half-open probe

	mu      sync.Mutex
	state   breakerState
	fails   int       // consecutive fold failures while closed
	until   time.Time // open: earliest half-open probe time
	probing bool      // half-open: the single probe is outstanding
	opens   int64     // cumulative closed/half-open → open transitions
}

// allow reports whether a new streaming batch may be admitted, and — when it
// may not — how long the caller should wait before retrying.
func (b *breaker) allow() (ok bool, retryAfter time.Duration) {
	if b == nil || b.threshold <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if wait := time.Until(b.until); wait > 0 {
			return false, wait
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, 0
	default: // half-open
		if b.probing {
			return false, b.cooldown
		}
		b.probing = true
		return true, 0
	}
}

// record feeds one fold outcome back into the circuit.
func (b *breaker) record(folded bool) {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if folded {
		b.state = breakerClosed
		b.fails = 0
		b.probing = false
		return
	}
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= b.threshold {
		if b.state != breakerOpen {
			b.opens++
		}
		b.state = breakerOpen
		b.until = time.Now().Add(b.cooldown)
		b.fails = 0
		b.probing = false
	}
}

// snapshot returns the current state name and cumulative open count for
// stats and metrics surfaces.
func (b *breaker) snapshot() (state string, opens int64) {
	if b == nil || b.threshold <= 0 {
		return breakerClosed.String(), 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.opens
}
