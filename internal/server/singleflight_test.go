package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// afterFuncCounter is a base context that counts the children still
// registered on it: context.WithCancel and WithTimeout register through
// its AfterFunc method and deregister through the returned stop when
// the child is cancelled.
type afterFuncCounter struct {
	context.Context // cancellable: children of a never-done parent never register
	live            atomic.Int64
}

// Value hides the embedded context's own cancellation from the context
// package, so children register through AfterFunc rather than with it
// directly.
func (c *afterFuncCounter) Value(any) any { return nil }

func (c *afterFuncCounter) AfterFunc(f func()) (stop func() bool) {
	c.live.Add(1)
	inner := context.AfterFunc(c.Context, f)
	var once sync.Once
	return func() bool {
		once.Do(func() { c.live.Add(-1) })
		return inner()
	}
}

// TestGroupReleasesSolveContexts checks that a finished flight leaves no
// context registered on the server's base context, with and without a
// per-solve deadline. A solve context derived and then replaced, never
// cancelled, would stay registered on the base until shutdown.
func TestGroupReleasesSolveContexts(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		root, stop := context.WithCancel(context.Background())
		defer stop()
		base := &afterFuncCounter{Context: root}
		g := newGroup(new(atomic.Uint64), new(atomic.Int64))
		for i := 0; i < 5; i++ {
			_, err := g.do(context.Background(), fmt.Sprint("spec", i), base, timeout,
				func(ctx context.Context) (*entry, error) { return nil, ctx.Err() })
			if err != nil {
				t.Fatal(err)
			}
		}
		g.wait()
		if n := base.live.Load(); n != 0 {
			t.Errorf("timeout %v: %d solve contexts still registered on the base after 5 finished solves", timeout, n)
		}
	}
}
