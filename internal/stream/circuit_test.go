package stream

import (
	"testing"
	"time"
)

// TestCircuit walks the fold circuit through its transitions on an explicit
// clock.
func TestCircuit(t *testing.T) {
	const cooldown = time.Second
	t0 := time.Unix(1000, 0)
	// tripped returns a threshold-2 circuit that two failures at t0 opened.
	tripped := func(t *testing.T) *circuit {
		t.Helper()
		c := &circuit{threshold: 2, cooldown: cooldown, state: circuitClosed}
		c.record(false, t0)
		if c.state != circuitClosed || c.wait(t0) != 0 {
			t.Fatalf("one failure of threshold 2 left the circuit %v, wait %v", c.state, c.wait(t0))
		}
		c.record(false, t0)
		if c.state != circuitOpen || c.opens != 1 {
			t.Fatalf("two consecutive failures: state %v, opens %d; want open, 1", c.state, c.opens)
		}
		return c
	}
	// want checks the circuit's state, open count and wait at now.
	want := func(t *testing.T, c *circuit, now time.Time, state string, opens int64, wait time.Duration) {
		t.Helper()
		if c.state != state || c.opens != opens || c.wait(now) != wait {
			t.Fatalf("circuit %v, opens %d, wait %v; want %v, %d, %v", c.state, c.opens, c.wait(now), state, opens, wait)
		}
	}

	t.Run("open_rejects_for_the_remaining_cooldown", func(t *testing.T) {
		c := tripped(t)
		want(t, c, t0.Add(300*time.Millisecond), circuitOpen, 1, 700*time.Millisecond)
	})
	t.Run("rejected_batch_leaves_the_probe", func(t *testing.T) {
		c := tripped(t)
		after := t0.Add(cooldown)
		// wait admits, but the batch is rejected for another reason and
		// never queued: the next batch is still the probe.
		want(t, c, after, circuitOpen, 1, 0)
		want(t, c, after.Add(time.Millisecond), circuitOpen, 1, 0)
		c.queued()
		want(t, c, after.Add(time.Millisecond), circuitHalfOpen, 1, cooldown)
	})
	t.Run("probe_success_closes", func(t *testing.T) {
		c := tripped(t)
		c.queued()
		c.record(true, t0.Add(2*cooldown))
		want(t, c, t0.Add(2*cooldown), circuitClosed, 1, 0)
	})
	t.Run("probe_failure_reopens", func(t *testing.T) {
		c := tripped(t)
		c.queued()
		c.record(false, t0.Add(2*cooldown))
		want(t, c, t0.Add(2*cooldown), circuitOpen, 2, cooldown)
	})
	t.Run("failures_while_open_refresh_the_cooldown", func(t *testing.T) {
		c := tripped(t)
		late := t0.Add(cooldown / 2)
		c.record(false, late)
		want(t, c, late, circuitOpen, 1, cooldown/2)
		c.record(false, late)
		want(t, c, late, circuitOpen, 1, cooldown)
	})
	t.Run("success_queued_before_the_trip_closes", func(t *testing.T) {
		c := tripped(t)
		c.record(true, t0.Add(time.Millisecond))
		want(t, c, t0.Add(time.Millisecond), circuitClosed, 1, 0)
	})
	t.Run("success_resets_the_failure_count", func(t *testing.T) {
		c := &circuit{threshold: 2, cooldown: cooldown, state: circuitClosed}
		c.record(false, t0)
		c.record(true, t0)
		c.record(false, t0)
		want(t, c, t0, circuitClosed, 0, 0)
	})
	t.Run("encode_failure_frees_the_probe", func(t *testing.T) {
		c := tripped(t)
		c.queued()
		c.encodeFailed()
		want(t, c, t0.Add(cooldown), circuitOpen, 1, 0)
		c.queued()
		want(t, c, t0.Add(cooldown), circuitHalfOpen, 1, cooldown)
	})
	t.Run("encode_failure_never_counts", func(t *testing.T) {
		c := &circuit{threshold: 1, cooldown: cooldown, state: circuitClosed}
		c.encodeFailed()
		want(t, c, t0, circuitClosed, 0, 0)
	})
	t.Run("disabled_never_opens", func(t *testing.T) {
		for _, threshold := range []int{0, -1} {
			c := &circuit{threshold: threshold, cooldown: cooldown, state: circuitClosed}
			for range 10 {
				c.record(false, t0)
			}
			want(t, c, t0, circuitClosed, 0, 0)
		}
	})
}
