package server

import (
	"sync"
	"time"
)

// breaker is the circuit breaker on the follower→leader proxy rung. A
// blackholed leader (partition, SIGSTOP, dead-but-leased) would
// otherwise charge every follower miss the full proxy retry budget
// before it degrades; after proxyFailuresToTrip consecutive failures
// the breaker opens and misses fall straight to the ε/2 fallback rung —
// identical privacy, bounded latency. After a cooldown of one lease TTL
// one probe request is let through (half-open): success closes the
// breaker, failure re-opens it for another cooldown.
//
// States: closed (proxying normally), open (all proxies refused),
// half-open (exactly one probe in flight).
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

type breaker struct {
	threshold int
	cooldown  time.Duration
	// now is swappable so the state machine is table-testable without
	// sleeping through cooldowns.
	now func() time.Time

	mu       sync.Mutex
	state    int32
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
	trips    uint64    // closed/half-open → open transitions, for /stats
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a proxy attempt may proceed. In the open state
// it also performs the cooldown→half-open transition, admitting the
// caller as the probe.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// result reports the outcome of an attempt admitted by allow. A success
// closes the breaker from any state; a failure counts toward the
// threshold when closed, re-opens immediately when half-open, and is
// ignored when already open (a straggler admitted before the trip has
// nothing new to teach).
func (b *breaker) result(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = breakerClosed
		b.fails = 0
		b.probing = false
		return
	}
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
		}
	case breakerHalfOpen:
		b.trip()
	}
}

// trip opens the breaker; callers hold b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.fails = 0
	b.probing = false
	b.trips++
}

// snapshot returns the state name and trip count for /stats.
func (b *breaker) snapshot() (string, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	name := "closed"
	switch b.state {
	case breakerOpen:
		name = "open"
	case breakerHalfOpen:
		name = "half-open"
	}
	return name, b.trips
}
