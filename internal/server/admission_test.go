package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serial"
)

// slowSolveSite is the fault-injection point the admission tests arm
// with a delay to impersonate a saturated solver: the solve-pool slot
// stays occupied for the armed duration while the cached tier keeps
// serving.
const slowSolveSite = "server/test/slow-solve"

// installSlowSolver replaces solveFn with a stub that visits the
// slow-solve fault point, so tests control solve duration by arming a
// Delay there.
func installSlowSolver(t *testing.T, srv *Server) {
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec, owner bool) (*entry, error) {
		if err := faultinject.At(slowSolveSite); err != nil {
			return nil, err
		}
		return stubEntry(t), nil
	}
}

// measureCached fires n sequential obfuscate requests for a warmed spec
// and returns the nearest-rank p99 latency; every response must be 200.
func measureCached(t *testing.T, ts *httptest.Server, req *serial.ObfuscateRequest, n int) time.Duration {
	t.Helper()
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		code, body := postJSONB(t, ts, "/obfuscate", req)
		if code != http.StatusOK {
			t.Fatalf("cached obfuscate %d answered %d: %s", i, code, body)
		}
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[(99*len(lat))/100]
}

// TestAdmissionIsolatesCachedServing is the admission-control
// integration test: with every solve-pool slot held by a deliberately
// slow cold solve (faultinject delay), cached digests must keep serving
// within a bounded latency — never queued behind the solver, never
// 429'd — while additional cold requests are the ones shed. This is the
// property the solve/serve pool split exists to provide; before the
// split, a single queued cold solve could add seconds to cached p99.
func TestAdmissionIsolatesCachedServing(t *testing.T) {
	slowDelay := 1200 * time.Millisecond
	if testing.Short() {
		slowDelay = 400 * time.Millisecond
	}

	srv := New(context.Background(), Config{
		CacheSize: 8,
		MaxSolves: 1,
		ServePool: 4,
		SolveWait: 30 * time.Second,
	})
	installSlowSolver(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	specs := testSpecs(t, 3)

	// Warm the cache for the hot digest (no fault armed: instant solve).
	if code, body := postJSONB(t, ts, "/solve", specs[0]); code != http.StatusOK {
		t.Fatalf("warmup solve answered %d: %s", code, body)
	}
	obf := &serial.ObfuscateRequest{
		SolveSpec: *specs[0],
		Locations: []serial.Loc{{Road: 0, FromStart: 0}},
	}

	// Unloaded baseline for the cached tier.
	unloadedP99 := measureCached(t, ts, obf, 50)

	// Saturate the solve pool: the armed delay holds the only slot.
	defer faultinject.Reset()
	faultinject.Set(slowSolveSite, faultinject.Fault{Delay: slowDelay})
	coldDone := make(chan int, 1)
	go func() {
		code, _ := postJSONB(t, ts, "/solve", specs[1])
		coldDone <- code
	}()
	// Deterministic gate, no sleep guessing: the cold request is visibly
	// waiting on its flight before we measure anything.
	waitFor(t, 5*time.Second, func() bool { return srv.Stats().SolveQueueDepth >= 1 })

	// A second cold digest must be shed by the solve gate (429), because
	// its tier is saturated...
	if code, _ := postJSONB(t, ts, "/solve", specs[2]); code != http.StatusTooManyRequests {
		t.Fatalf("cold solve with a saturated solve pool answered %d, want 429", code)
	}

	// ...while the cached digest keeps serving on its own tier.
	loadedP99 := measureCached(t, ts, obf, 50)

	snap := srv.Stats()
	if snap.AdmissionRejects != 0 {
		t.Fatalf("%d cached requests were 429'd by the serve gate while only the solve pool was saturated", snap.AdmissionRejects)
	}
	if snap.Rejected == 0 {
		t.Fatal("solve gate recorded no rejects; the cold tier was not actually saturated")
	}

	// Isolation bound: cached p99 under solver saturation stays within a
	// constant factor of the unloaded p99 (generous floor for CI-machine
	// scheduling noise), and in particular nowhere near the solve delay
	// it would inherit if cached serving queued behind the solver.
	bound := 50 * unloadedP99
	if floor := 250 * time.Millisecond; bound < floor {
		bound = floor
	}
	if half := slowDelay / 2; bound > half {
		bound = half
	}
	if loadedP99 > bound {
		t.Fatalf("cached p99 under cold-solve saturation = %v (unloaded %v); not isolated within bound %v",
			loadedP99, unloadedP99, bound)
	}

	// The slow solve completes and was never lost.
	if code := <-coldDone; code != http.StatusOK {
		t.Fatalf("saturating cold solve finished with %d, want 200", code)
	}
	// Queue-depth gauges must return to zero at quiescence.
	waitFor(t, 5*time.Second, func() bool {
		s := srv.Stats()
		return s.SolveQueueDepth == 0 && s.ServeQueueDepth == 0
	})
}

// TestServeGateShedsPastQueueBound covers the serve tier's own
// admission policy in isolation: with the slot and the serveQueueFactor
// queue both exhausted by parked requests, the next request is shed
// immediately with 429 and counted in admission_rejects, and releases
// restore the gauge to zero.
func TestServeGateShedsPastQueueBound(t *testing.T) {
	srv := New(context.Background(), Config{ServePool: 1})
	g := srv.serveGate

	// Fill the slot.
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Fill the queue: context-bounded waiters park.
	parked := make(chan error, serveQueueFactor)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < serveQueueFactor; i++ {
		go func() { parked <- g.acquire(ctx) }()
	}
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().ServeQueueDepth == 1+serveQueueFactor })

	// Past capacity+queue: immediate shed, no blocking.
	if err := g.acquire(context.Background()); err != ErrBusy {
		t.Fatalf("over-bound acquire returned %v, want ErrBusy", err)
	}
	if snap := srv.Stats(); snap.AdmissionRejects != 1 {
		t.Fatalf("admission_rejects = %d, want 1", snap.AdmissionRejects)
	}

	// Each release admits one parked waiter; a cancelled waiter leaves
	// no residue in the gauge.
	for i := 0; i < serveQueueFactor; i++ {
		g.release()
		if err := <-parked; err != nil {
			t.Fatalf("parked waiter %d got %v after a release", i, err)
		}
	}
	g.release()
	if snap := srv.Stats(); snap.ServeQueueDepth != 0 {
		t.Fatalf("serve queue depth %d after all releases, want 0", snap.ServeQueueDepth)
	}
}
