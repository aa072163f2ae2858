package server

import (
	"context"
	"sync/atomic"
)

// tierGate is the serving-tier admission gate: a bounded-concurrency,
// bounded-queue semaphore with lock-free depth accounting. The server
// runs two disjoint pools — the solve pool (cold column-generation
// solves, seconds each) and the serve pool (cached sampling,
// microseconds each) — so a queue of cold solves can never add latency
// to the cached path. TestAdmissionIsolatesCachedServing is the
// yardstick: cached p99 under cold-solve saturation must stay within a
// constant factor of the unloaded cached p99.
//
// Admission policy: a request may wait for a busy slot as long as the
// total population (running + queued) stays within capacity+maxQueue;
// past that the gate sheds it immediately with ErrBusy (429) instead of
// growing an unbounded queue. Waiting is context-bounded, so a request
// deadline also caps time spent queued.
type tierGate struct {
	slots    chan struct{}
	maxQueue int64
	// depth gauges running+queued requests; rejects counts admission
	// 429s. Both point into the server's stats struct so the gate stays
	// on the lock-free counter contract (atomicstats).
	depth   *atomic.Int64
	rejects *atomic.Uint64
}

func newTierGate(capacity, maxQueue int, depth *atomic.Int64, rejects *atomic.Uint64) *tierGate {
	return &tierGate{
		slots:    make(chan struct{}, capacity),
		maxQueue: int64(maxQueue),
		depth:    depth,
		rejects:  rejects,
	}
}

// acquire admits the caller or sheds it: ErrBusy past the queue bound,
// ctx.Err() if the context ends while queued. On nil the caller must
// release.
func (g *tierGate) acquire(ctx context.Context) error {
	if g.depth.Add(1) > int64(cap(g.slots))+g.maxQueue {
		g.depth.Add(-1)
		g.rejects.Add(1)
		return ErrBusy
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		g.depth.Add(-1)
		return ctx.Err()
	}
}

func (g *tierGate) release() {
	<-g.slots
	g.depth.Add(-1)
}
