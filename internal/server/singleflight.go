package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// call is one in-flight solve shared by every request for its key.
type call struct {
	done chan struct{}
	val  *entry
	err  error
	// cancel aborts the solve's context; fired by the last departing
	// waiter (abandonment), by the per-solve deadline, or by shutdown
	// drain expiry through the base context.
	cancel  context.CancelFunc
	waiters int // guarded by group.mu
}

// group deduplicates concurrent solves per key, singleflight-style: the
// first request for a key becomes the leader and starts the solve in its
// own goroutine; followers block on the shared result (or their own
// context). The solve goroutine is detached from any single request —
// one caller timing out does not abort work other callers still want —
// but it is not unkillable: its context is derived from the server's
// base context plus an optional per-solve deadline, and it is cancelled
// outright when the last waiter abandons the key. The solver's
// degradation ladder turns that cancellation into a served incumbent or
// fallback rather than a lost solve. Graceful shutdown waits for these
// goroutines via wait.
type group struct {
	mu sync.Mutex
	m  map[string]*call
	wg sync.WaitGroup

	// coalesced counts callers that joined an existing flight instead of
	// starting one; waiting gauges callers currently blocked on a flight
	// result. Both point into the server's lock-free stats struct.
	coalesced *atomic.Uint64
	waiting   *atomic.Int64
}

func newGroup(coalesced *atomic.Uint64, waiting *atomic.Int64) *group {
	return &group{m: make(map[string]*call), coalesced: coalesced, waiting: waiting}
}

// do returns the result of fn for key, running fn at most once across
// all concurrent callers of the same key. fn receives a context derived
// from base (cancelled additionally after timeout, if positive, and when
// the last waiter departs). The key is forgotten once fn returns, so a
// failed solve (for example a backpressure rejection) can be retried by
// later requests.
func (g *group) do(ctx context.Context, key string, base context.Context, timeout time.Duration, fn func(context.Context) (*entry, error)) (*entry, error) {
	g.mu.Lock()
	c, ok := g.m[key]
	if !ok {
		var solveCtx context.Context
		var cancel context.CancelFunc
		if timeout > 0 {
			solveCtx, cancel = context.WithTimeout(base, timeout)
		} else {
			solveCtx, cancel = context.WithCancel(base)
		}
		c = &call{done: make(chan struct{}), cancel: cancel}
		g.m[key] = c
		g.wg.Add(1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					c.val, c.err = nil, fmt.Errorf("server: solve panicked: %v", r)
				}
				g.mu.Lock()
				delete(g.m, key)
				g.mu.Unlock()
				close(c.done)
				cancel()
				g.wg.Done()
			}()
			c.val, c.err = fn(solveCtx)
		}()
	}
	if ok {
		// Joining an existing flight is a coalesced request: a burst of
		// same-digest cold requests shares the leader's single
		// solve-slot acquisition.
		g.coalesced.Add(1)
	}
	c.waiters++
	g.mu.Unlock()

	g.waiting.Add(1)
	val, err := awaitCall(ctx, c)
	g.waiting.Add(-1)

	g.mu.Lock()
	c.waiters--
	abandoned := c.waiters == 0
	g.mu.Unlock()
	if abandoned {
		select {
		case <-c.done:
			// Solve already finished; nothing to abandon.
		default:
			// Every caller has left: stop burning CPU on an answer nobody
			// is waiting for. The interrupted solve still produces (and
			// caches) its best incumbent via the degradation ladder.
			c.cancel()
		}
	}
	return val, err
}

func awaitCall(ctx context.Context, c *call) (*entry, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// wait blocks until every in-flight solve goroutine has finished.
func (g *group) wait() { g.wg.Wait() }
