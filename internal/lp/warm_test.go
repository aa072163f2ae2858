package lp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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
		want, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: one-shot: %v", trial, err)
		}
		pp, err := Prepare(p)
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
	pp, err := Prepare(p)
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
		want, err := Solve(cold)
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
	pp, err := Prepare(p)
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

// eqTestProblem is a small all-EQ problem suitable for IPMSolver; extra
// appends a fifth column (cost 0.1, on both rows), the one
// TestIPMSolverWarmMatchesCold adds to a live solver.
func eqTestProblem(extra bool) *Problem {
	n := 4
	if extra {
		n = 5
	}
	p := NewProblem(n)
	copy(p.objective, []float64{1, 2, 1.5, 0.3, 0.1})
	r0 := []Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}}
	r1 := []Term{{Var: 1, Coef: 1}, {Var: 2, Coef: 2}, {Var: 3, Coef: 1}}
	if extra {
		r0 = append(r0, Term{Var: 4, Coef: 1})
		r1 = append(r1, Term{Var: 4, Coef: 1})
	}
	p.AddConstraint(r0, EQ, 2)
	p.AddConstraint(r1, EQ, 3)
	return p
}

// checkAgainstSimplex solves p with the simplex oracle and fails unless
// the IPM solution got matches its objective and is feasible for p.
func checkAgainstSimplex(t *testing.T, what string, p *Problem, got *Solution) {
	t.Helper()
	want, err := Solve(p)
	if err != nil || want.Status != Optimal {
		t.Fatalf("%s: simplex %v %v", what, err, want.Status)
	}
	if got.Status != Optimal || math.Abs(got.Objective-want.Objective) > 1e-6 {
		t.Fatalf("%s: IPM %v obj %v, simplex %v", what, got.Status, got.Objective, want.Objective)
	}
	if v := p.Violation(got.X); v > 1e-6 {
		t.Fatalf("%s: IPM solution violates by %g", what, v)
	}
}

func TestIPMSolverWarmMatchesCold(t *testing.T) {
	sv, err := NewIPMSolver(eqTestProblem(false))
	if err != nil {
		t.Fatal(err)
	}
	first, err := sv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSimplex(t, "first solve", eqTestProblem(false), first)

	// Grow a cheap column and warm re-solve; compare to the problem
	// built with that column from the start.
	sv.AddColumn(0.1, []Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}})
	warm, err := sv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	p2 := eqTestProblem(true)
	checkAgainstSimplex(t, "warm solve", p2, warm)
	// Objective mutation (the rho escalation path).
	sv.SetObjectiveCoeff(3, 9)
	p2.SetObjectiveCoeff(3, 9)
	warm2, err := sv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSimplex(t, "post-retune solve", p2, warm2)
}

// perturbedCosts returns a copy of p whose objective coefficients are
// each scaled by a factor uniform in [1−frac, 1+frac].
func perturbedCosts(rng *rand.Rand, p *Problem, frac float64) *Problem {
	q := *p
	q.objective = append([]float64(nil), p.objective...)
	for j := range q.objective {
		q.objective[j] *= 1 + frac*(2*rng.Float64()-1)
	}
	return &q
}

// TestIPMSolverStartFrom carries one solver's final iterate to another
// instance of the same shape whose costs moved by ±0.1%, as a resumed
// column-generation master does: the seeded solve must reach the cold
// solve's optimum in fewer Newton iterations, cols that name a column
// too few or one the iterate lacks must be ignored, and the handed-out
// iterate must come back unchanged.
func TestIPMSolverStartFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := withSlacks(randomCoveringLP(rng, 24, 16))
	donor, err := NewIPMSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if donor.Iterate() != nil {
		t.Fatal("an unsolved instance hands out an iterate")
	}
	if _, err := donor.Solve(); err != nil {
		t.Fatal(err)
	}
	it := donor.Iterate()
	if it == nil {
		t.Fatal("an optimal solve left no iterate")
	}
	before := fmt.Sprintf("%x", *it)

	for trial := 0; trial < 5; trial++ {
		q := perturbedCosts(rng, p, 0.001)
		coldSv, err := NewIPMSolver(q)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldSv.Solve()
		if err != nil {
			t.Fatal(err)
		}
		warmSv, err := NewIPMSolver(q)
		if err != nil {
			t.Fatal(err)
		}
		warmSv.StartFrom(it, everyColumn(it))
		warm, err := warmSv.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != Optimal || math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: warm %v objective %v, cold %v", trial, warm.Status, warm.Objective, cold.Objective)
		}
		if warm.Iterations >= cold.Iterations {
			t.Errorf("trial %d: warm start took %d Newton iterations, cold %d", trial, warm.Iterations, cold.Iterations)
		}
		all := everyColumn(it)
		for _, cols := range [][]int{all[1:], append([]int{len(all)}, all[1:]...)} {
			sv, err := NewIPMSolver(q)
			if err != nil {
				t.Fatal(err)
			}
			sv.StartFrom(it, cols)
			got, err := sv.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%x %d", got.X, got.Iterations) != fmt.Sprintf("%x %d", cold.X, cold.Iterations) {
				t.Errorf("trial %d: a start from columns %v… took %d Newton iterations to %v, want the cold solve's %d to %v",
					trial, cols[:2], got.Iterations, got.Objective, cold.Iterations, cold.Objective)
			}
		}
	}
	if fmt.Sprintf("%x", *it) != before {
		t.Fatal("StartFrom or Solve wrote to the seeding iterate")
	}
}

// everyColumn names each of it's columns, in order: StartFrom's cols
// for an instance over the columns it was taken over.
func everyColumn(it *Iterate) []int {
	cols := make([]int, it.Columns())
	for j := range cols {
		cols[j] = j
	}
	return cols
}

// TestIPMSolverPoisonedIterateFallsBackCold seeds a solver with iterates
// it cannot use. One of the wrong length is ignored; one holding NaN or
// Inf fails its warm run, which Solve retries cold. Either way the
// solve ends with the cold solve's bits. An iterate on the boundary
// (all zero, negative) is floored into the interior and must still end
// at the cold optimum.
func TestIPMSolverPoisonedIterateFallsBackCold(t *testing.T) {
	p := eqTestProblem(false)
	sv, err := NewIPMSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	fill := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	good := sv.Iterate()
	n, m := len(good.x), len(good.y)
	for _, tc := range []struct {
		name     string
		it       *Iterate
		coldBits bool
	}{
		{"short x", &Iterate{x: fill(n-1, 1), y: fill(m, 0), s: fill(n, 1)}, true},
		{"long y", &Iterate{x: fill(n, 1), y: fill(m+1, 0), s: fill(n, 1)}, true},
		{"short s", &Iterate{x: fill(n, 1), y: fill(m, 0), s: fill(n-1, 1)}, true},
		{"NaN", &Iterate{x: fill(n, math.NaN()), y: fill(m, 0), s: fill(n, 1)}, true},
		{"Inf", &Iterate{x: fill(n, 1), y: fill(m, math.Inf(1)), s: fill(n, math.Inf(1))}, true},
		{"zero", &Iterate{x: fill(n, 0), y: fill(m, 0), s: fill(n, 0)}, false},
		{"negative", &Iterate{x: fill(n, -1), y: fill(m, -5), s: fill(n, -1)}, false},
	} {
		sv, err := NewIPMSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		sv.StartFrom(tc.it, everyColumn(good))
		got, err := sv.Solve()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkAgainstSimplex(t, tc.name, p, got)
		if tc.coldBits && fmt.Sprintf("%x", got.X) != fmt.Sprintf("%x", want.X) {
			t.Errorf("%s: X %v, want the cold solve's %v", tc.name, got.X, want.X)
		}
	}
}

// TestIPMSolverAddColumnAllocs guards the master's column append: on a
// live solver (warm iterate present), AddColumn stores the caller's
// entries as they are and extends the warm point, so it allocates
// nothing beyond the amortised growth of its arrays.
func TestIPMSolverAddColumnAllocs(t *testing.T) {
	sv, err := NewIPMSolver(eqTestProblem(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Solve(); err != nil {
		t.Fatal(err)
	}
	entries := []Term{{Var: 0, Coef: 0.5}, {Var: 1, Coef: 1}}
	allocs := testing.AllocsPerRun(1000, func() {
		sv.AddColumn(0.7, entries)
	})
	if allocs > 0 {
		t.Fatalf("AddColumn allocates %v objects per call, want 0 amortised", allocs)
	}
	if got := sv.NumVars(); got != 4+1001 {
		t.Fatalf("NumVars = %d after 1001 appends to 4 columns", got)
	}
}

// TestIPMSolverReserveAllocs: after Reserve, appending the reserved
// columns allocates nothing at all, and Reserve adds no headroom beyond
// what it was asked for.
func TestIPMSolverReserveAllocs(t *testing.T) {
	sv, err := NewIPMSolver(eqTestProblem(false))
	if err != nil {
		t.Fatal(err)
	}
	const cols = 300
	entries := []Term{{Var: 0, Coef: 0.5}, {Var: 1, Coef: 1}}
	nnz := sv.ip.mat.nnz()
	// AllocsPerRun appends the columns twice: a warm-up run, then the
	// measured one.
	sv.Reserve(2*cols, 2*cols*len(entries))
	if got, want := cap(sv.ip.mat.rows), nnz+2*cols*len(entries); got != want {
		t.Fatalf("row pool capacity %d after Reserve, want exactly %d", got, want)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < cols; i++ {
			sv.AddColumn(0.7, entries)
		}
	})
	if allocs > 0 {
		t.Fatalf("appending %d reserved columns allocates %v objects, want 0", cols, allocs)
	}
	if _, err := sv.Solve(); err != nil {
		t.Fatal(err)
	}
}

func TestIPMSolverAddColumnRejectsBadRows(t *testing.T) {
	for _, tc := range []struct {
		name    string
		entries []Term
	}{
		{"descending", []Term{{Var: 1, Coef: 1}, {Var: 0, Coef: 1}}},
		{"duplicate", []Term{{Var: 0, Coef: 1}, {Var: 0, Coef: 1}}},
		{"out of range", []Term{{Var: 0, Coef: 1}, {Var: 2, Coef: 1}}},
		{"negative", []Term{{Var: -1, Coef: 1}}},
	} {
		sv, err := NewIPMSolver(eqTestProblem(false))
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s rows %v: AddColumn did not panic", tc.name, tc.entries)
				}
			}()
			sv.AddColumn(1, tc.entries)
		}()
		if got := sv.NumVars(); got != 4 {
			t.Errorf("%s rows: NumVars = %d after the rejected append, want 4", tc.name, got)
		}
	}
}

func TestIPMSolverRejectsInequalityRows(t *testing.T) {
	p := NewProblem(2)
	p.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 1)
	if _, err := NewIPMSolver(p); err == nil {
		t.Fatal("expected rejection of inequality rows")
	}
}

func TestIPMSolverResolveAllocs(t *testing.T) {
	sv, err := NewIPMSolver(eqTestProblem(false))
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
	pp, err := Prepare(p)
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

// TestPreparedMirrorPatchedInPlace guards the simplex's row-major
// mirror, built once per instance: installArtificialSigns patches each
// artificial's sign as the last entry of its row, which holds only if
// artificial artStart+i ends row i. After solves whose right-hand sides
// flip sign, the mirror must equal a fresh build of the matrix.
func TestPreparedMirrorPatchedInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, p := range []*Problem{randomCoveringLP(rng, 12, 9), pricingDualInstance(rng, 16)} {
		pp, err := Prepare(p)
		if err != nil {
			t.Fatal(err)
		}
		s := pp.s
		for i := 0; i < s.m; i++ {
			if last := s.at.cols[s.at.ptr[i+1]-1]; int(last) != s.artStart+i {
				t.Fatalf("row %d ends with column %d, want its artificial %d", i, last, s.artStart+i)
			}
		}
		var basis *Basis
		for step := 0; step < 12; step++ {
			for i := 0; i < s.m; i++ {
				pp.SetRHS(i, 2*rng.Float64()-1)
			}
			if _, err := pp.SolveFrom(basis); err != nil {
				t.Fatal(err)
			}
			basis = pp.Basis(basis)
			var fresh csr
			fresh.build(&s.mat, s.m, nil, 0)
			if fmt.Sprint(fresh.ptr, fresh.cols) != fmt.Sprint(s.at.ptr, s.at.cols) ||
				fmt.Sprintf("%x", fresh.vals) != fmt.Sprintf("%x", s.at.vals) {
				t.Fatalf("step %d: mirror differs from a fresh build of the matrix", step)
			}
		}
	}
}

// masterColumns draws n column-generation master columns over k unit
// rows and k convexity rows: each dense (entries in (0, 1]) over a
// leading run of the unit rows, at least 16 long in most columns so the
// normal-equations panel is elected, plus one convexity entry.
func masterColumns(rng *rand.Rand, k, n int) [][]Term {
	cols := make([][]Term, n)
	for c := range cols {
		run := k
		if rng.Intn(4) == 0 {
			run = 1 + rng.Intn(k)
		}
		for i := 0; i < run; i++ {
			cols[c] = append(cols[c], Term{Var: i, Coef: 0.05 + 0.95*rng.Float64()})
		}
		cols[c] = append(cols[c], Term{Var: k + rng.Intn(k), Coef: 1})
	}
	return cols
}

// TestFrozenIPMClone checks a clone of a compiled master against the
// same master compiled afresh: a donor solver over k slacks and pool
// columns, copied (Compiled) after more columns were appended than its
// last solve saw, is cloned under new costs; the clone must solve with
// the fresh compile's bits and Newton iteration counts, warm-started
// from the donor's iterate as well as cold, before and after it appends
// columns of its own; the warm clone runs in the workspace the cold one
// released. The copy, its panel and remainder mirror byte for byte,
// must come out unchanged, and must not change as
// the donor goes on appending and solving.
func TestFrozenIPMClone(t *testing.T) {
	const k = 20
	rng := rand.New(rand.NewSource(61))
	pool := masterColumns(rng, k, 80)
	rho := 3.0
	compile := func(cols [][]Term, costs []float64) *IPMSolver {
		return masterSolver(t, k, cols, costs, rho)
	}
	randCosts := func(n int) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.Float64()
		}
		return c
	}
	donor := compile(pool[:60], randCosts(60))
	if _, err := donor.Solve(); err != nil {
		t.Fatal(err)
	}
	for _, col := range pool[60:] {
		donor.AddColumn(rng.Float64(), col)
	}
	it := donor.Iterate()
	frozen := donor.Compiled()
	if len(frozen.form.members) == 0 {
		t.Fatal("the frozen master elected no panel span")
	}
	before, beforeBytes := fmt.Sprintf("%v", *frozen), formBytes(&frozen.form)

	extra := masterColumns(rng, k, 5)
	for _, warm := range []bool{false, true} {
		costs := randCosts(len(pool))
		all := make([]float64, 2*k, 2*k+len(costs))
		for s := range all {
			all[s] = rho
		}
		clone, fresh := frozen.Clone(append(all, costs...)), compile(pool, costs)
		if warm {
			clone.StartFrom(it, everyColumn(it))
			fresh.StartFrom(it, everyColumn(it))
		}
		for round := 0; round < 3; round++ {
			a, err := clone.Solve()
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if a.Status != Optimal || fmt.Sprintf("%x %x %x %d", a.X, a.Duals, a.Objective, a.Iterations) !=
				fmt.Sprintf("%x %x %x %d", b.X, b.Duals, b.Objective, b.Iterations) {
				t.Fatalf("warm=%v round %d: the clone solved to %v in %d iterations, a fresh compile %v in %d",
					warm, round, a.Objective, a.Iterations, b.Objective, b.Iterations)
			}
			// Both append two columns before the next round: the clone
			// copies the shared matrix and rebuilds its own mirror.
			for _, col := range extra[round:][:2] {
				c := rng.Float64()
				clone.AddColumn(c, col)
				fresh.AddColumn(c, col)
			}
		}
		if fmt.Sprintf("%v", *frozen) != before {
			t.Fatalf("warm=%v: a clone wrote to the frozen master", warm)
		}
		if formBytes(&frozen.form) != beforeBytes {
			t.Fatalf("warm=%v: a clone's solves wrote to the frozen panel or remainder mirror", warm)
		}
		// The next clone takes over this one's workspace.
		clone.Release()
	}
	donor.AddColumn(0.5, extra[0])
	if _, err := donor.Solve(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", *frozen) != before || formBytes(&frozen.form) != beforeBytes {
		t.Fatal("the donor's append and solve wrote to its compiled copy")
	}
}

// formBytes renders a compiled form's panel and remainder mirror byte
// for byte.
func formBytes(f *ipmForm) string {
	var b strings.Builder
	for _, v := range f.panel {
		fmt.Fprintf(&b, "%016x", math.Float64bits(v))
	}
	fmt.Fprintf(&b, "|%v|%v|%v|", f.members, f.rem.ptr, f.rem.cols)
	for _, v := range f.rem.vals {
		fmt.Fprintf(&b, "%016x", math.Float64bits(v))
	}
	return b.String()
}
