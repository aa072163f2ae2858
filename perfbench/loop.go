package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock abstracts time for the load loops, so the due-time arithmetic is
// testable with a virtual clock.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sample is one timed operation.
type sample struct {
	lat  time.Duration // completion minus due time (open loop, see openLoop) or send time (closed loop)
	lag  time.Duration // send minus due time: how late the generator ran
	done time.Time
	ok   bool
}

// openLoop sends plan[i] at start+due(i) over workers connections. A
// worker that is still busy with an earlier request when the next one
// falls due sends it late, and that request's latency is charged from
// its due time, so a stalled request also charges the ones queued behind
// it. A worker that was idle but woke late (timer overshoot, which on a
// shared VM reaches milliseconds) charges from the send instead: that
// lateness belongs to the generator and is reported as lag. do performs
// request i and returns when its response was complete (excluding any
// checking done afterwards) and whether it succeeded.
func openLoop(c clock, start time.Time, n int, due func(i int) time.Duration, workers int,
	do func(i int) (done time.Time, ok bool)) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start // when this worker finished its previous request
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				at := start.Add(due(i))
				c.SleepUntil(at)
				sent := c.Now()
				from := sent
				if free.After(at) {
					from = at
				}
				done, ok := do(i)
				out[i] = sample{lat: done.Sub(from), lag: sent.Sub(at), done: done, ok: ok}
				free = done
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs do(0), do(1), … back to back on one client until the
// deadline passes or n operations are done; an operation started before
// the deadline always completes. Each latency is timed from its send.
func closedLoop(c clock, deadline time.Time, n int, do func(i int) (done time.Time, ok bool)) []sample {
	var out []sample
	for i := 0; i < n && c.Now().Before(deadline); i++ {
		sent := c.Now()
		done, ok := do(i)
		out = append(out, sample{lat: done.Sub(sent), done: done, ok: ok})
	}
	return out
}
