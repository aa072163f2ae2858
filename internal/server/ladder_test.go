package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/serial"
)

// ladderSpec is a small real spec the ladder tests solve end to end
// (the ladder's rungs only exist in the real solve path, so these tests
// do not stub solveFn).
func ladderSpec(t *testing.T) *serial.SolveSpec {
	t.Helper()
	return testSpecs(t, 1)[0]
}

// assertServable asserts the serving invariant that holds on every
// ladder rung: the mechanism satisfies the full Geo-I constraint set and
// is row-stochastic within the advertised 1e-9.
func assertServable(t *testing.T, e *entry) {
	t.Helper()
	if e == nil || e.mech == nil {
		t.Fatal("no servable entry")
	}
	if v := e.prob.GeoIViolation(e.mech); v > 1e-9 {
		t.Errorf("tier %q mechanism violates Geo-I by %g", e.tier, v)
	}
	if v := e.mech.RowStochasticError(); v > 1e-9 {
		t.Errorf("tier %q mechanism row-stochastic error %g", e.tier, v)
	}
}

// TestLadderOptimal: an unconstrained solve lands on the top rung.
func TestLadderOptimal(t *testing.T) {
	srv := New(context.Background(), Config{DisableUpgrade: true})
	e, err := srv.solve(context.Background(), ladderSpec(t), true)
	if err != nil {
		t.Fatal(err)
	}
	if e.tier != serial.QualityOptimal {
		t.Fatalf("tier %q, want optimal", e.tier)
	}
	assertServable(t, e)
}

// TestLadderIncumbentOnCancel: cancellation after a completed master
// round degrades to the interrupted run's incumbent, never to an error.
func TestLadderIncumbentOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := New(context.Background(), Config{
		DisableUpgrade: true,
		CG: core.CGOptions{
			Xi: -1e-9, RelGap: -1, // force many rounds so the cancel lands mid-run
			OnIteration: func(iter int, _ core.CGIteration) {
				if iter == 0 {
					cancel()
				}
			},
		},
	})
	e, err := srv.solve(ctx, ladderSpec(t), true)
	if err != nil {
		t.Fatalf("cancelled solve must degrade, got error %v", err)
	}
	if e.tier != serial.QualityIncumbent {
		t.Fatalf("tier %q, want incumbent", e.tier)
	}
	assertServable(t, e)
	if snap := srv.Stats(); snap.CancelledSolves != 1 {
		t.Errorf("cancelled_solves = %d, want 1", snap.CancelledSolves)
	}
}

// TestLadderFallbackOnPreCancel: cancellation before any master round
// leaves no incumbent; the bottom rung serves the exponential mechanism.
func TestLadderFallbackOnPreCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv := New(context.Background(), Config{DisableUpgrade: true})
	e, err := srv.solve(ctx, ladderSpec(t), true)
	if err != nil {
		t.Fatalf("pre-cancelled solve must degrade, got error %v", err)
	}
	if e.tier != serial.QualityFallback {
		t.Fatalf("tier %q, want fallback", e.tier)
	}
	if e.bound != 0 {
		t.Errorf("fallback entry carries a dual bound %v", e.bound)
	}
	assertServable(t, e)
	if snap := srv.Stats(); snap.CancelledSolves != 1 {
		t.Errorf("cancelled_solves = %d, want 1", snap.CancelledSolves)
	}
}

// TestLadderFallbackOnPanic: a solver panic is recovered into the bottom
// rung and counted.
func TestLadderFallbackOnPanic(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set(core.FaultSiteCGMaster, faultinject.Fault{Panic: "chaos", Times: 1})
	srv := New(context.Background(), Config{DisableUpgrade: true})
	e, err := srv.solve(context.Background(), ladderSpec(t), true)
	if err != nil {
		t.Fatalf("panicked solve must degrade, got error %v", err)
	}
	if e.tier != serial.QualityFallback {
		t.Fatalf("tier %q, want fallback", e.tier)
	}
	assertServable(t, e)
	if snap := srv.Stats(); snap.PanicRecoveries != 1 {
		t.Errorf("panic_recoveries = %d, want 1", snap.PanicRecoveries)
	}
}

// TestLadderFallbackOnSolverError: a plain solver error (no panic, no
// cancellation) also degrades rather than failing the request.
func TestLadderFallbackOnSolverError(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set(core.FaultSiteCGMaster, faultinject.Fault{Err: errors.New("chaos"), Times: 1})
	srv := New(context.Background(), Config{DisableUpgrade: true})
	e, err := srv.solve(context.Background(), ladderSpec(t), true)
	if err != nil {
		t.Fatalf("failed solve must degrade, got error %v", err)
	}
	if e.tier != serial.QualityFallback {
		t.Fatalf("tier %q, want fallback", e.tier)
	}
	assertServable(t, e)
}

// TestLadderSolveDeadline: the per-solve deadline converts a slow solve
// into a degraded entry instead of an error. A long injected delay at
// the pricing site stalls the solve well past the deadline after the
// first master round has completed. The second case runs vlpserved's
// default ratio, SolveWait == SolveDeadline, through the handler: the
// waiter must receive the degraded rung the deadline produces, not a
// 504 from a wait that expires with it.
func TestLadderSolveDeadline(t *testing.T) {
	defer faultinject.Reset()
	t.Run("direct", func(t *testing.T) {
		faultinject.Set(core.FaultSiteCGPricing, faultinject.Fault{Delay: time.Second, Times: 1})
		srv := New(context.Background(), Config{DisableUpgrade: true, SolveDeadline: 300 * time.Millisecond})
		start := time.Now()
		e, _, err := srv.mechanismFor(context.Background(), ladderSpec(t))
		if err != nil {
			t.Fatalf("deadline-bound solve must degrade, got error %v", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("solve took %v despite the deadline", elapsed)
		}
		if e.tier == serial.QualityOptimal {
			t.Fatal("solve stalled past its deadline still claims the optimal tier")
		}
		assertServable(t, e)
		if snap := srv.Stats(); snap.CancelledSolves != 1 {
			t.Errorf("cancelled_solves = %d, want 1", snap.CancelledSolves)
		}
	})
	t.Run("wait-equals-deadline", func(t *testing.T) {
		faultinject.Set(core.FaultSiteCGPricing, faultinject.Fault{Delay: time.Second, Times: 1})
		srv := New(context.Background(), Config{
			DisableUpgrade: true,
			SolveWait:      300 * time.Millisecond,
			SolveDeadline:  300 * time.Millisecond,
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		code, body := postJSONB(t, ts, "/solve", ladderSpec(t))
		if code != http.StatusOK {
			t.Fatalf("deadline-bound solve answered %d, want 200: %s", code, body)
		}
		var sr serial.SolveResponse
		if err := json.Unmarshal([]byte(body), &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Quality != serial.QualityIncumbent && sr.Quality != serial.QualityFallback {
			t.Fatalf("quality %q, want incumbent or fallback", sr.Quality)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExactSpecKeepsConfiguredLimits regression-tests the option-merge
// fix: Exact must tighten only the stop criteria, not discard the rest
// of the configured CG options (a prior version replaced the whole
// struct, losing iteration caps and observers).
func TestExactSpecKeepsConfiguredLimits(t *testing.T) {
	observed := 0
	srv := New(context.Background(), Config{
		DisableUpgrade: true,
		CG: core.CGOptions{
			MaxIterations: 1,
			OnIteration:   func(int, core.CGIteration) { observed++ },
		},
	})
	spec := ladderSpec(t)
	spec.Exact = true
	if _, err := srv.solve(context.Background(), spec, true); err != nil {
		t.Fatal(err)
	}
	if observed == 0 {
		t.Error("configured OnIteration observer was discarded for an exact spec")
	}
	if observed > 1 {
		t.Errorf("configured MaxIterations=1 was discarded for an exact spec: %d rounds ran", observed)
	}
}

// TestUpgradePromotesDegradedEntry: a degraded cache entry is re-solved
// in the background and replaced by the optimal-tier result.
func TestUpgradePromotesDegradedEntry(t *testing.T) {
	srv := New(context.Background(), Config{})
	degradedFirst := true
	real := srv.solveFn
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec, owner bool) (*entry, error) {
		if degradedFirst {
			degradedFirst = false
			cancelled, cancel := context.WithCancel(ctx)
			cancel() // force the bottom rung for the first (foreground) solve
			return real(cancelled, spec, owner)
		}
		return real(ctx, spec, owner)
	}

	spec := ladderSpec(t)
	e, _, err := srv.mechanismFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if e.tier != serial.QualityFallback {
		t.Fatalf("first solve tier %q, want fallback", e.tier)
	}

	// The background upgrade re-solves without the sabotage and promotes.
	waitFor(t, 10*time.Second, func() bool {
		cur, ok := srv.cache.get(spec.Digest())
		return ok && cur.tier == serial.QualityOptimal
	})
	// The upgrade caches its entry before it counts it: join it first.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Stats(); snap.Upgrades != 1 {
		t.Errorf("upgrades = %d, want 1", snap.Upgrades)
	}
	cur, _ := srv.cache.get(spec.Digest())
	assertServable(t, cur)
}

// TestUpgradeCountsEviction: an upgrade that re-inserts a key evicted
// while it ran evicts another entry in turn, and /stats counts it.
func TestUpgradeCountsEviction(t *testing.T) {
	srv := New(context.Background(), Config{CacheSize: 1})
	specs := testSpecs(t, 2)
	release := make(chan struct{})
	degraded, other, upgraded := stubEntry(t), stubEntry(t), stubEntry(t)
	degraded.tier = serial.QualityIncumbent // the foreground solve degrades
	var calls atomic.Int32
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec, owner bool) (*entry, error) {
		if spec.Digest() != specs[0].Digest() {
			return other, nil
		}
		if calls.Add(1) == 1 {
			return degraded, nil
		}
		// The upgrade finishes only once its key has been evicted.
		select {
		case <-release:
			return upgraded, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	solveVia(t, srv, specs[0])
	solveVia(t, srv, specs[1])
	if got := srv.Stats().CacheEvicted; got != 1 {
		t.Fatalf("cache_evicted = %d, want 1", got)
	}
	close(release)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Stats(); snap.Upgrades != 1 || snap.CacheEvicted != 2 {
		t.Fatalf("upgrades=%d cache_evicted=%d, want 1/2", snap.Upgrades, snap.CacheEvicted)
	}
	if cur, ok := srv.cache.get(specs[0].Digest()); !ok || cur.tier != serial.QualityOptimal {
		t.Fatal("the upgrade's entry is not cached")
	}
}

// TestShutdownExpiredDrainCancelsSolves: when the drain budget runs out,
// Shutdown cancels the remaining detached solves outright and still
// returns only after they have stopped.
func TestShutdownExpiredDrainCancelsSolves(t *testing.T) {
	srv := New(context.Background(), Config{})
	solveStarted := make(chan struct{})
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec, owner bool) (*entry, error) {
		close(solveStarted)
		<-ctx.Done() // a solve that never finishes on its own
		return nil, ctx.Err()
	}

	errc := make(chan error, 1)
	go func() {
		_, _, err := srv.mechanismFor(context.Background(), ladderSpec(t))
		errc <- err
	}()
	<-solveStarted

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v after its drain budget expired", elapsed)
	}
	if err := <-errc; err == nil {
		t.Fatal("the cancelled solve's waiter got a nil error")
	}
}
