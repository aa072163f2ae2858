package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomCoveringLP builds a feasible bounded covering LP with mixed
// operators: minimise a positive objective under ≥ rows plus a few box
// rows.
func randomCoveringLP(rng *rand.Rand, nVars, nRows int) *Problem {
	p := NewProblem(nVars)
	for j := 0; j < nVars; j++ {
		p.SetObjectiveCoeff(j, 1+rng.Float64())
	}
	for i := 0; i < nRows; i++ {
		terms := make([]Term, 0, nVars/3)
		for j := 0; j < nVars; j++ {
			if rng.Float64() < 0.25 {
				terms = append(terms, Term{Var: j, Coef: 0.5 + rng.Float64()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: i % nVars, Coef: 1})
		}
		p.AddConstraint(terms, GE, 1+rng.Float64())
	}
	for j := 0; j < nVars; j += 3 {
		p.AddConstraint([]Term{{Var: j, Coef: 1}}, LE, 5)
	}
	return p
}

func TestPreparedMatchesOneShotSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p := randomCoveringLP(rng, 12+rng.Intn(20), 8+rng.Intn(16))
		want, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: one-shot: %v", trial, err)
		}
		pp, err := Prepare(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: prepare: %v", trial, err)
		}
		got, err := pp.Solve()
		if err != nil {
			t.Fatalf("trial %d: prepared: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v vs one-shot %v", trial, got.Status, want.Status)
		}
		if want.Status != Optimal {
			continue
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
			t.Fatalf("trial %d: objective %v vs one-shot %v", trial, got.Objective, want.Objective)
		}
		if v := p.Violation(got.X); v > 1e-6 {
			t.Fatalf("trial %d: prepared solution violates by %g", trial, v)
		}
	}
}

func TestPreparedWarmRHSChange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomCoveringLP(rng, 30, 20)
	pp, err := Prepare(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Solve(); err != nil {
		t.Fatal(err)
	}
	basis := pp.Basis(nil)

	rhs := make([]float64, 20)
	for i := range rhs {
		rhs[i] = 1 + rng.Float64()
	}
	for trial := 0; trial < 10; trial++ {
		// Drift the covering rows' right-hand sides (the dual-simplex
		// restart path) and compare against a from-scratch solve.
		cold := NewProblem(p.NumVars())
		for j := 0; j < p.NumVars(); j++ {
			cold.SetObjectiveCoeff(j, p.objective[j])
		}
		for i, c := range p.constraints {
			r := c.RHS
			if i < len(rhs) {
				r = rhs[i] + 0.3*rng.NormFloat64()
				if r < 0.1 {
					r = 0.1
				}
				pp.SetRHS(i, r)
			}
			cold.AddConstraint(c.Terms, c.Op, r)
		}
		warm, err := pp.SolveFrom(basis)
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		want, err := Solve(cold, Options{})
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		if warm.Status != want.Status {
			t.Fatalf("trial %d: status warm %v cold %v", trial, warm.Status, want.Status)
		}
		if want.Status == Optimal && math.Abs(warm.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
			t.Fatalf("trial %d: warm objective %v vs cold %v", trial, warm.Objective, want.Objective)
		}
		basis = pp.Basis(basis)
	}
}

func TestPreparedPoisonedBasisFallsBackCold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := randomCoveringLP(rng, 24, 16)
	pp, err := Prepare(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	wantObj := want.Objective

	m := pp.NumRows()
	poisoned := []*Basis{
		{},                       // empty
		{cols: make([]int, m-1)}, // wrong length
		{cols: make([]int, m)},   // all-zero: duplicated indices
		{cols: func() []int {
			c := make([]int, m)
			for i := range c {
				c[i] = 1 << 30
			}
			return c
		}()}, // out of range
		{cols: func() []int {
			c := make([]int, m)
			for i := range c {
				c[i] = i
			}
			return c
		}()}, // arbitrary, likely singular/infeasible
	}
	for i, b := range poisoned {
		got, err := pp.SolveFrom(b)
		if err != nil {
			t.Fatalf("poisoned %d: %v", i, err)
		}
		if got.Status != Optimal || math.Abs(got.Objective-wantObj) > 1e-6*(1+math.Abs(wantObj)) {
			t.Fatalf("poisoned %d: status %v objective %v, want optimal %v", i, got.Status, got.Objective, wantObj)
		}
	}
}

func TestAddColumnMatchesRebuild(t *testing.T) {
	// A tiny transportation-style LP grown one column at a time must
	// match the same LP built in one shot.
	build := func(withExtra bool) *Problem {
		p := NewProblem(3)
		p.SetObjective([]float64{2, 3, 1})
		p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, EQ, 4)
		p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 2, Coef: -1}}, LE, 1)
		if withExtra {
			p.AddColumn(0.5, []Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 2}})
		}
		return p
	}
	grown := build(true)
	direct := NewProblem(4)
	direct.SetObjective([]float64{2, 3, 1, 0.5})
	direct.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}, {Var: 3, Coef: 1}}, EQ, 4)
	direct.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 2, Coef: -1}, {Var: 3, Coef: 2}}, LE, 1)

	a, err := Solve(grown, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(direct, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != Optimal || b.Status != Optimal {
		t.Fatalf("status %v vs %v", a.Status, b.Status)
	}
	if math.Abs(a.Objective-b.Objective) > 1e-9 {
		t.Fatalf("objective %v vs %v", a.Objective, b.Objective)
	}
}

// eqTestProblem is a small all-EQ problem suitable for IPMSolver.
func eqTestProblem() *Problem {
	p := NewProblem(4)
	p.SetObjective([]float64{1, 2, 1.5, 0.3})
	p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, EQ, 2)
	p.AddConstraint([]Term{{Var: 1, Coef: 1}, {Var: 2, Coef: 2}, {Var: 3, Coef: 1}}, EQ, 3)
	return p
}

func TestIPMSolverWarmMatchesCold(t *testing.T) {
	p := eqTestProblem()
	sv, err := NewIPMSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SolveIPM(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != Optimal || math.Abs(first.Objective-ref.Objective) > 1e-6 {
		t.Fatalf("first solve %v obj %v, want %v", first.Status, first.Objective, ref.Objective)
	}

	// Grow a cheap column and warm re-solve; compare to a rebuilt solve.
	sv.AddColumn(0.1, []Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}})
	warm, err := sv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	p2 := eqTestProblem()
	p2.AddColumn(0.1, []Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}})
	ref2, err := SolveIPM(p2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || math.Abs(warm.Objective-ref2.Objective) > 1e-6 {
		t.Fatalf("warm solve %v obj %v, want %v", warm.Status, warm.Objective, ref2.Objective)
	}
	// Objective mutation (the rho escalation path).
	sv.SetObjectiveCoeff(3, 9)
	p2.SetObjectiveCoeff(3, 9)
	warm2, err := sv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ref3, err := SolveIPM(p2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm2.Status != Optimal || math.Abs(warm2.Objective-ref3.Objective) > 1e-6 {
		t.Fatalf("post-retune solve %v obj %v, want %v", warm2.Status, warm2.Objective, ref3.Objective)
	}
}

func TestIPMSolverRejectsInequalityRows(t *testing.T) {
	p := NewProblem(2)
	p.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 1)
	if _, err := NewIPMSolver(p, Options{}); err == nil {
		t.Fatal("expected rejection of inequality rows")
	}
}

func TestIPMSolverResolveAllocs(t *testing.T) {
	p := eqTestProblem()
	sv, err := NewIPMSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Solve(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		sv.SetObjectiveCoeff(0, 1.01)
		if _, err := sv.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	// A steady-state re-solve reuses the full workspace; only the
	// Solution struct and its X/Duals slices are fresh per call.
	if allocs > 8 {
		t.Fatalf("steady-state IPM re-solve allocates %v objects per run, want ≤ 8", allocs)
	}
}

func TestPreparedWarmResolveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := randomCoveringLP(rng, 30, 20)
	pp, err := Prepare(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Solve(); err != nil {
		t.Fatal(err)
	}
	basis := pp.Basis(nil)
	// Warm it up once so lazy buffers exist.
	if _, err := pp.SolveFrom(basis); err != nil {
		t.Fatal(err)
	}
	basis = pp.Basis(basis)
	allocs := testing.AllocsPerRun(20, func() {
		pp.SetRHS(0, 1.05)
		if _, err := pp.SolveFrom(basis); err != nil {
			t.Fatal(err)
		}
		basis = pp.Basis(basis)
	})
	// The steady-state warm re-solve must be allocation-free; a couple
	// of allocs of slack cover interface boxing in the test harness.
	if allocs > 2 {
		t.Fatalf("warm re-solve allocates %v objects per run, want ≤ 2", allocs)
	}
}
