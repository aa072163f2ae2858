package lp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/faultinject"
)

func cancelTestProblem() *Problem {
	// min -x0 - 2x1 s.t. x0 + x1 <= 4, x1 <= 2.
	p := NewProblem(2)
	p.SetObjective([]float64{-1, -2})
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 1}}, LE, 2)
	return p
}

// cancelTestSolvers compiles cancelTestProblem for both cancellable
// paths: a Prepared simplex and, in equality form, an IPMSolver.
func cancelTestSolvers(t *testing.T) (*Prepared, *IPMSolver) {
	t.Helper()
	pp, err := Prepare(cancelTestProblem())
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewIPMSolver(withSlacks(cancelTestProblem()))
	if err != nil {
		t.Fatal(err)
	}
	return pp, sv
}

func TestSolvePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pp, sv := cancelTestSolvers(t)
	pp.SetContext(ctx)
	if _, err := pp.Solve(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Prepared.Solve err = %v, want context.Canceled", err)
	}
	sv.SetContext(ctx)
	if _, err := sv.Solve(); !errors.Is(err, context.Canceled) {
		t.Fatalf("IPMSolver.Solve err = %v, want context.Canceled", err)
	}
}

func TestSolveNilCtxUnaffected(t *testing.T) {
	// A nil context means "never cancelled": it is the default, and
	// installing it in place of a cancelled one lets the same instance
	// run to completion again.
	pp, sv := cancelTestSolvers(t)
	solveBoth := func(when string) {
		t.Helper()
		if sol, err := pp.Solve(); err != nil || sol.Status != Optimal {
			t.Fatalf("Prepared %s: %v", when, err)
		}
		if sol, err := sv.Solve(); err != nil || sol.Status != Optimal {
			t.Fatalf("IPMSolver %s: %v", when, err)
		}
	}
	solveBoth("with the default nil ctx")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pp.SetContext(ctx)
	sv.SetContext(ctx)
	if _, err := pp.Solve(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Prepared.Solve err = %v, want context.Canceled", err)
	}
	if _, err := sv.Solve(); !errors.Is(err, context.Canceled) {
		t.Fatalf("IPMSolver.Solve err = %v, want context.Canceled", err)
	}
	pp.SetContext(nil)
	sv.SetContext(nil)
	solveBoth("after clearing a cancelled ctx")
}

func TestIPMSolverInjectedFault(t *testing.T) {
	defer faultinject.Reset()
	_, sv := cancelTestSolvers(t)
	boom := errors.New("injected IPM failure")
	faultinject.Set(FaultSiteIPM, faultinject.Fault{Err: boom, Times: 1})
	if _, err := sv.Solve(); !errors.Is(err, boom) {
		t.Fatalf("IPMSolver.Solve err = %v, want wrapped %v", err, boom)
	}
	// The fault self-disarmed after one visit; the next solve succeeds.
	sol, err := sv.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("post-fault solve: %v (status %v)", err, sol.Status)
	}
}
