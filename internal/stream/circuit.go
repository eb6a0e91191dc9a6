package stream

import "time"

// The circuit's states, as Stats.Circuit reports them.
const (
	circuitClosed   = "closed"    // admits batches
	circuitOpen     = "open"      // rejects batches until the cooldown has passed
	circuitHalfOpen = "half_open" // rejects batches while the probe is outstanding
)

// circuit is the adapter's breaker over fold outcomes, guarded by the
// adapter mutex. A poisoned stream (a fold that always fails) would
// otherwise burn the queue: every accepted batch is encoded, locked and
// folded only to be discarded. After threshold consecutive fold failures the
// circuit opens; the first batch queued after the cooldown is the probe, and
// the next fold outcome closes or reopens it. An outcome may come from a
// batch queued before the circuit opened: a success closes it, and every
// threshold failures while open refresh the cooldown. Encode failures never
// count.
type circuit struct {
	threshold int           // consecutive fold failures that open it; <= 0 never opens
	cooldown  time.Duration // how long open rejects before it admits the probe

	state string    // circuitClosed, circuitOpen or circuitHalfOpen
	fails int       // consecutive fold failures since it last opened or closed
	until time.Time // open: earliest time the probe is admitted
	opens int64     // closed/half-open → open transitions
}

// wait reports how long a batch arriving at now must wait before the circuit
// admits it; 0 admits. It changes nothing, so a batch rejected afterwards for
// another reason leaves the probe to the next one.
func (c *circuit) wait(now time.Time) time.Duration {
	switch c.state {
	case circuitOpen:
		return max(c.until.Sub(now), 0)
	case circuitHalfOpen:
		return c.cooldown
	}
	return 0
}

// queued records that a batch the circuit admitted was queued. An open
// circuit admits only once its cooldown has passed, so the batch is the
// probe.
func (c *circuit) queued() {
	if c.state == circuitOpen {
		c.state = circuitHalfOpen
	}
}

// encodeFailed notes a batch whose encode failed. No fold will report for
// it, and it may have been the probe, so a half-open circuit goes back to
// open with its cooldown passed: the next batch queued probes.
func (c *circuit) encodeFailed() {
	if c.state == circuitHalfOpen {
		c.state = circuitOpen
	}
}

// record feeds one fold outcome back at now.
func (c *circuit) record(folded bool, now time.Time) {
	if c.threshold <= 0 {
		return
	}
	if folded {
		c.state, c.fails = circuitClosed, 0
		return
	}
	c.fails++
	if c.state == circuitHalfOpen || c.fails >= c.threshold {
		if c.state != circuitOpen {
			c.opens++
		}
		c.state, c.fails, c.until = circuitOpen, 0, now.Add(c.cooldown)
	}
}
