package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestLargeCoefficientSpread(t *testing.T) {
	// Geo-I-style rows mix unit and e^{εd} ≈ 10⁴ coefficients; the
	// equilibration must keep the solve exact.
	p := NewProblem(3)
	p.SetObjective([]float64{1, 2, 3})
	p.AddConstraint([]Term{{0, 1}, {1, 1}, {2, 1}}, EQ, 1)
	p.AddConstraint([]Term{{0, 1}, {1, -28000}}, LE, 0)
	p.AddConstraint([]Term{{1, 1}, {0, -28000}}, LE, 0)
	sol := solveOK(t, p)
	// Optimum pushes mass to x0 (cheapest) subject to coupling.
	if sol.X[0] < 0.9 {
		t.Fatalf("x = %v, expected x0 ≈ 1", sol.X)
	}
}

func TestEqualityOnlyDegenerate(t *testing.T) {
	// Multiple redundant equalities (rank-deficient): phase 1 must keep
	// an artificial basic at zero and still solve.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 2)
	p.AddConstraint([]Term{{0, 2}, {1, 2}}, EQ, 4) // redundant
	p.AddConstraint([]Term{{0, 1}}, GE, 0.5)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Fatalf("objective %v, want 2", sol.Objective)
	}
}

func TestZeroRHSConeWithBox(t *testing.T) {
	// The pricing subproblem shape: homogeneous rows plus a unit box,
	// negative costs pushing into the cone.
	p := NewProblem(4)
	p.SetObjective([]float64{-1, -0.5, 0.1, 0.2})
	f := math.Exp(3 * 0.2)
	for i := 0; i < 3; i++ {
		p.AddConstraint([]Term{{i, 1}, {i + 1, -f}}, LE, 0)
		p.AddConstraint([]Term{{i + 1, 1}, {i, -f}}, LE, 0)
	}
	for i := 0; i < 4; i++ {
		p.AddConstraint([]Term{{i, 1}}, LE, 1)
	}
	sol := solveOK(t, p)
	if sol.X[0] < 0.99 {
		t.Fatalf("x0 = %v, want 1 (most negative cost)", sol.X[0])
	}
	// Chain constraints force neighbours above x0/f.
	if sol.X[1] < 1/f-1e-9 {
		t.Fatalf("x1 = %v violates chained lower bound %v", sol.X[1], 1/f)
	}
}

func TestMaxIterReportsLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewProblem(20)
	for j := 0; j < 20; j++ {
		p.SetObjectiveCoeff(j, rng.NormFloat64())
	}
	for i := 0; i < 15; i++ {
		terms := make([]Term, 20)
		for j := range terms {
			terms[j] = Term{j, rng.NormFloat64()}
		}
		p.AddConstraint(terms, LE, 1+rng.Float64())
	}
	s := newSimplex(p)
	s.maxIter = 1
	sol, err := s.solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == Optimal && sol.Iterations > 1 {
		t.Fatalf("exceeded the pivot limit: %d iterations", sol.Iterations)
	}
}

func TestDualSignsGEBinding(t *testing.T) {
	// For a min problem, binding >= rows carry nonnegative duals.
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.AddConstraint([]Term{{0, 1}}, GE, 3)
	sol := solveOK(t, p)
	if sol.Duals[0] < -1e-9 {
		t.Fatalf("dual %v, want >= 0 for binding GE row", sol.Duals[0])
	}
	if math.Abs(sol.Duals[0]-1) > 1e-6 {
		t.Fatalf("dual %v, want 1 (marginal cost)", sol.Duals[0])
	}
}

func TestIPMInfeasibleReportsLimit(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	sv, err := NewIPMSolver(withSlacks(p))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == Optimal {
		t.Fatalf("IPM claimed optimal on an infeasible problem (x=%v)", sol.X)
	}
}

func TestIPMTransportation(t *testing.T) {
	// Balanced transportation problem (EQ rows both sides).
	const k = 5
	p := NewProblem(k * k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			p.SetObjectiveCoeff(i*k+j, float64((i+1)*(j+1)))
		}
	}
	for i := 0; i < k; i++ {
		terms := make([]Term, k)
		for j := 0; j < k; j++ {
			terms[j] = Term{i*k + j, 1}
		}
		p.AddConstraint(terms, EQ, 1)
	}
	for j := 0; j < k; j++ {
		terms := make([]Term, k)
		for i := 0; i < k; i++ {
			terms[i] = Term{i*k + j, 1}
		}
		p.AddConstraint(terms, EQ, 1)
	}
	si := solveIPMOK(t, p)
	sx, err := Solve(p)
	if err != nil || sx.Status != Optimal {
		t.Fatalf("simplex: %v %v", err, sx.Status)
	}
	if math.Abs(si.Objective-sx.Objective) > 1e-4*(1+sx.Objective) {
		t.Fatalf("IPM %v != simplex %v", si.Objective, sx.Objective)
	}
}

func TestSolutionIndependentOfTermOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	build := func(shuffle bool) *Problem {
		p := NewProblem(4)
		p.SetObjective([]float64{3, 1, 4, 1})
		rows := [][]Term{
			{{0, 2}, {1, 1}, {3, 0.5}},
			{{1, 1}, {2, 3}},
			{{0, 1}, {2, 1}, {3, 1}},
		}
		for _, terms := range rows {
			ts := append([]Term(nil), terms...)
			if shuffle {
				rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
			}
			p.AddConstraint(ts, GE, 2)
		}
		return p
	}
	a := solveOK(t, build(false))
	b := solveOK(t, build(true))
	if math.Abs(a.Objective-b.Objective) > 1e-9 {
		t.Fatalf("term order changed the optimum: %v vs %v", a.Objective, b.Objective)
	}
}
