package main

import (
	"testing"
	"time"
)

// virtualClock is a single-goroutine clock: sleeping jumps to the wake
// time plus a fixed overshoot, and requests advance it explicitly.
type virtualClock struct {
	now       time.Time
	overshoot time.Duration
}

func (c *virtualClock) Now() time.Time { return c.now }

func (c *virtualClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t.Add(c.overshoot)
	}
}

func TestOpenLoopStallChargesQueuedRequests(t *testing.T) {
	c := &virtualClock{now: time.Unix(0, 0)}
	start := c.now
	ms := time.Millisecond
	// Requests due every 1 ms on one connection; request 0 takes 10 ms,
	// the rest 0.5 ms each.
	service := []time.Duration{10 * ms, ms / 2, ms / 2, ms / 2, ms / 2}
	got := openLoop(c, start, len(service), func(i int) time.Duration { return time.Duration(i) * ms }, 1,
		func(i int) (time.Time, bool) {
			c.now = c.now.Add(service[i])
			return c.now, true
		})
	// Request i (i ≥ 1) is due at i ms, sent when request i-1 finishes
	// at 10 + 0.5(i-1) ms and done 0.5 ms later: its latency from its
	// due time is 10 - 0.5i ms.
	want := []time.Duration{10 * ms, 9500 * time.Microsecond, 9 * ms, 8500 * time.Microsecond, 8 * ms}
	for i, s := range got {
		if s.lat != want[i] {
			t.Errorf("request %d latency %v, want %v", i, s.lat, want[i])
		}
		if !s.ok {
			t.Errorf("request %d not ok", i)
		}
	}
	if got[2].lag != 8500*time.Microsecond {
		t.Errorf("request 2 lag %v, want 8.5ms", got[2].lag)
	}
}

func TestOpenLoopIdleOvershootIsGeneratorLag(t *testing.T) {
	c := &virtualClock{now: time.Unix(0, 0), overshoot: 3 * time.Millisecond}
	start := c.now
	ms := time.Millisecond
	got := openLoop(c, start, 3, func(i int) time.Duration { return time.Duration(i+1) * 10 * ms }, 1,
		func(int) (time.Time, bool) {
			c.now = c.now.Add(ms)
			return c.now, true
		})
	for i, s := range got {
		if s.lat != ms || s.lag != 3*ms {
			t.Errorf("request %d: latency %v lag %v, want 1ms and 3ms", i, s.lat, s.lag)
		}
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	c := &virtualClock{now: time.Unix(0, 0)}
	deadline := c.now.Add(25 * time.Millisecond)
	got := closedLoop(c, deadline, 100, func(int) (time.Time, bool) {
		c.now = c.now.Add(10 * time.Millisecond)
		return c.now, true
	})
	// Sends at 0, 10 and 20 ms; the one started at 20 ms completes.
	if len(got) != 3 {
		t.Fatalf("%d operations, want 3", len(got))
	}
	for i, s := range got {
		if s.lat != 10*time.Millisecond {
			t.Errorf("operation %d latency %v", i, s.lat)
		}
	}
}
