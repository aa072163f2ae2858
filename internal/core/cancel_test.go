package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/faultinject"
)

// TestSolveCGCtxCancelMidRun is the cancellation-latency regression: a
// context cancelled after round N must stop the loop before round N+1's
// master solve, returning the round-N incumbent together with the
// context error.
func TestSolveCGCtxCancelMidRun(t *testing.T) {
	pr := smallProblem(t, 41, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const cancelAfter = 1 // cancel once iteration index 1 has completed
	res, err := SolveCGCtx(ctx, pr, CGOptions{
		Xi: -1e-9,
		OnIteration: func(iter int, _ CGIteration) {
			if iter == cancelAfter {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Mechanism == nil {
		t.Fatal("cancelled solve returned no incumbent despite completed rounds")
	}
	if res.Stopped == "" {
		t.Error("Stopped should describe the interruption")
	}
	// Latency bound: no full round may run after the cancel is visible.
	if got := len(res.Iterations); got != cancelAfter+1 {
		t.Errorf("loop ran %d rounds, want exactly %d (cancel observed at next round boundary)", got, cancelAfter+1)
	}
	// The incumbent is a serviceable mechanism: row-stochastic and
	// repairable to full Geo-I feasibility.
	if e := res.Mechanism.RowStochasticError(); e > 1e-9 {
		t.Errorf("incumbent row-stochastic error %g", e)
	}
	if _, _, err := pr.EnforceGeoI(res.Mechanism, GeoITol); err != nil {
		t.Errorf("incumbent not repairable: %v", err)
	}
}

// TestSolveCGCtxPreCancelled: cancellation before any master round means
// there is no incumbent — only the error comes back.
func TestSolveCGCtxPreCancelled(t *testing.T) {
	pr := tinyProblem(t, 42, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveCGCtx(ctx, pr, CGOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("pre-cancelled solve returned a result: %+v", res)
	}
}

// TestSolveCGPanicRecovered: a panic injected under the master solve
// surfaces as a *PanicError, not an unwound goroutine.
func TestSolveCGPanicRecovered(t *testing.T) {
	defer faultinject.Reset()
	pr := tinyProblem(t, 43, 3)
	faultinject.Set(FaultSiteCGMaster, faultinject.Fault{Panic: "numeric breakdown", Times: 1})
	res, err := SolveCG(pr, CGOptions{})
	if res != nil {
		t.Fatalf("panicked solve returned a result: %+v", res)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Site != "core.SolveCG" || pe.Value != "numeric breakdown" {
		t.Errorf("PanicError = {Site: %q, Value: %v}", pe.Site, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError should capture the stack")
	}
}

// TestSolveCGMasterErrorFirstRound: the very first master failing is a
// hard error — there is no incumbent to degrade to.
func TestSolveCGMasterErrorFirstRound(t *testing.T) {
	defer faultinject.Reset()
	pr := tinyProblem(t, 44, 3)
	boom := errors.New("injected master failure")
	faultinject.Set(FaultSiteCGMaster, faultinject.Fault{Err: boom, Times: 1})
	res, err := SolveCG(pr, CGOptions{})
	if res != nil || !errors.Is(err, boom) {
		t.Fatalf("got (%v, %v), want (nil, wrapped %v)", res, err, boom)
	}
}

// TestSolveCGMasterErrorLateRound: a master failure after at least one
// clean round returns the previous round's incumbent with a diagnostic,
// not an error — the numerical-stall posture.
func TestSolveCGMasterErrorLateRound(t *testing.T) {
	defer faultinject.Reset()
	pr := smallProblem(t, 45, 3)
	boom := errors.New("late master failure")
	res, err := SolveCGCtx(context.Background(), pr, CGOptions{
		Xi: -1e-9,
		OnIteration: func(iter int, _ CGIteration) {
			if iter == 0 {
				// Arm after round 0 completes so round 1's master fails.
				faultinject.Set(FaultSiteCGMaster, faultinject.Fault{Err: boom, Times: 1})
			}
		},
	})
	if err != nil {
		t.Fatalf("late master failure should degrade, got error %v", err)
	}
	if res == nil || res.Mechanism == nil {
		t.Fatal("no incumbent returned")
	}
	if res.Stopped == "" {
		t.Error("Stopped should record the master failure")
	}
	if e := res.Mechanism.RowStochasticError(); e > 1e-9 {
		t.Errorf("incumbent row-stochastic error %g", e)
	}
}

// TestSolveCGPricingPanicRecovered: a panic on a pricing worker
// goroutine must not crash the process — the caller's recover cannot
// reach another goroutine, so the worker converts it itself.
func TestSolveCGPricingPanicRecovered(t *testing.T) {
	defer faultinject.Reset()
	pr := tinyProblem(t, 47, 3)
	faultinject.Set(FaultSiteCGPricing, faultinject.Fault{Panic: "worker breakdown", Times: 1})
	res, err := SolveCG(pr, CGOptions{})
	if res != nil {
		t.Fatalf("panicked solve returned a result: %+v", res)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want wrapped *PanicError", err, err)
	}
	if pe.Site != "core.pricer" {
		t.Errorf("panic site %q, want core.pricer", pe.Site)
	}
}

// TestSolveCGPricingErrorIsFatal: a pricing failure with a live context
// is a real solver error, not a degradation.
func TestSolveCGPricingErrorIsFatal(t *testing.T) {
	defer faultinject.Reset()
	pr := tinyProblem(t, 46, 3)
	boom := errors.New("injected pricing failure")
	faultinject.Set(FaultSiteCGPricing, faultinject.Fault{Err: boom, Times: 1})
	res, err := SolveCG(pr, CGOptions{})
	if res != nil || !errors.Is(err, boom) {
		t.Fatalf("got (%v, %v), want (nil, wrapped %v)", res, err, boom)
	}
}

// TestPriceOneRejectsInfeasibleColumn: a recovered pricing column that
// fails the Λ_l check is an error, not a column. Zeroing the cached
// e^{ε·D} factors makes every column with a positive entry infeasible.
func TestPriceOneRejectsInfeasibleColumn(t *testing.T) {
	pr := tinyProblem(t, 48, 3)
	k := pr.Part.K()
	p, err := newPricer(pr, CGOptions{Workers: 1}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.pairF {
		p.pairF[i] = 0
	}
	// Duals far above every cost make each reduced cost negative, so the
	// minimiser puts mass on every interval.
	pi := make([]float64, k)
	for i := range pi {
		pi[i] = 10
		for _, c := range pr.Costs {
			pi[i] += c
		}
	}
	for l := 0; l < k; l++ {
		if _, _, err := p.priceOne(context.Background(), p.workers[0], l, pi); err == nil {
			t.Fatalf("sub_%d: infeasible recovered column accepted", l)
		}
	}
}
