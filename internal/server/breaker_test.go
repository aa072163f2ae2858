package server

import (
	"testing"
	"time"
)

// TestBreakerStateMachine drives the full closed→open→half-open→closed
// cycle (and the half-open→open relapse) through a scripted table, with
// the clock injected so cooldowns cost nothing.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, 10*time.Second)
	b.now = func() time.Time { return now }

	type step struct {
		desc string
		run  func() bool // returns the value under test
		want bool
	}
	allow := func() func() bool { return b.allow }
	fail := func() func() bool { return func() bool { b.result(false); return true } }
	succeed := func() func() bool { return func() bool { b.result(true); return true } }
	advance := func(d time.Duration) func() bool {
		return func() bool { now = now.Add(d); return true }
	}
	inState := func(want string) func() bool {
		return func() bool { s, _ := b.snapshot(); return s == want }
	}

	steps := []step{
		{"starts closed", inState("closed"), true},
		{"closed allows", allow(), true},
		{"failure 1", fail(), true},
		{"failure 2", fail(), true},
		{"still closed below threshold", inState("closed"), true},
		{"still allowing", allow(), true},
		{"a success resets the count", succeed(), true},
		{"failure 1 again", fail(), true},
		{"failure 2 again", fail(), true},
		{"failure 3 trips", fail(), true},
		{"now open", inState("open"), true},
		{"open refuses", allow(), false},
		{"open still refuses mid-cooldown", advance(9 * time.Second), true},
		{"…refused", allow(), false},
		{"late straggler failure is ignored while open", fail(), true},
		{"still open", inState("open"), true},
		{"cooldown elapses", advance(2 * time.Second), true},
		{"first caller admitted as probe", allow(), true},
		{"now half-open", inState("half-open"), true},
		{"second caller refused while probe in flight", allow(), false},
		{"probe fails → re-open", fail(), true},
		{"re-opened", inState("open"), true},
		{"refused again", allow(), false},
		{"second cooldown", advance(11 * time.Second), true},
		{"probe admitted again", allow(), true},
		{"probe succeeds → closed", succeed(), true},
		{"closed again", inState("closed"), true},
		{"closed allows freely", allow(), true},
	}
	for i, s := range steps {
		if got := s.run(); got != s.want {
			t.Fatalf("step %d (%s): got %v, want %v", i, s.desc, got, s.want)
		}
	}
	if _, trips := b.snapshot(); trips != 2 {
		t.Fatalf("trips = %d, want 2 (threshold trip + failed probe)", trips)
	}
}

// TestBreakerTripsOnlyOnConsecutiveFailures: interleaved successes keep
// the breaker closed forever — only an unbroken run of failures trips
// it.
func TestBreakerTripsOnlyOnConsecutiveFailures(t *testing.T) {
	b := newBreaker(2, time.Minute)
	for i := 0; i < 10; i++ {
		if !b.allow() {
			t.Fatalf("iteration %d: closed breaker refused", i)
		}
		b.result(false)
		b.result(true)
	}
	if s, trips := b.snapshot(); s != "closed" || trips != 0 {
		t.Fatalf("state %q trips %d after alternating outcomes, want closed/0", s, trips)
	}
}
