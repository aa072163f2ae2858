package lp

import (
	"math"
	"math/rand"
	"testing"
)

const tol = 1e-6

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v\n%s", err, p.DebugString())
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal\n%s", sol.Status, p.DebugString())
	}
	if v := p.Violation(sol.X); v > 1e-6 {
		t.Fatalf("solution violates constraints by %g\n%s", v, p.DebugString())
	}
	return sol
}

func TestSolveSimpleLE(t *testing.T) {
	// min -x0 - 2x1 s.t. x0 + x1 <= 4, x1 <= 2  => x = (2, 2), obj = -6.
	p := NewProblem(2)
	p.SetObjective([]float64{-1, -2})
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 1}}, LE, 2)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective+6) > tol {
		t.Fatalf("objective = %v, want -6", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > tol || math.Abs(sol.X[1]-2) > tol {
		t.Fatalf("x = %v, want (2,2)", sol.X)
	}
}

func TestSolveEquality(t *testing.T) {
	// min x0 + x1 s.t. x0 + 2x1 = 3, x0 - x1 = 0  => x = (1, 1), obj = 2.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.AddConstraint([]Term{{0, 1}, {1, 2}}, EQ, 3)
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, EQ, 0)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-2) > tol {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestSolveGE(t *testing.T) {
	// Diet-style: min 3x0 + 2x1 s.t. x0 + x1 >= 4, x0 + 3x1 >= 6.
	// Vertices: (0,4) obj 8, (3,1) obj 11, (6,0) obj 18 => optimum 8.
	p := NewProblem(2)
	p.SetObjective([]float64{3, 2})
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 4)
	p.AddConstraint([]Term{{0, 1}, {1, 3}}, GE, 6)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-8) > tol {
		t.Fatalf("objective = %v, want 8 (x=%v)", sol.Objective, sol.X)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// min x0 s.t. -x0 <= -3  (i.e. x0 >= 3).
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.AddConstraint([]Term{{0, -1}}, LE, -3)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-3) > tol {
		t.Fatalf("x0 = %v, want 3", sol.X[0])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{-1, 0})
	p.AddConstraint([]Term{{1, 1}}, LE, 1)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNoConstraints(t *testing.T) {
	p := NewProblem(1)
	if _, err := Solve(p); err != ErrNoConstraints {
		t.Fatalf("err = %v, want ErrNoConstraints", err)
	}
}

func TestDegenerateCycleGuard(t *testing.T) {
	// Beale's classic cycling example (cycles under naive Dantzig rule).
	// min -0.75x0 + 150x1 - 0.02x2 + 6x3
	// s.t. 0.25x0 - 60x1 - 0.04x2 + 9x3 <= 0
	//      0.5x0  - 90x1 - 0.02x2 + 3x3 <= 0
	//      x2 <= 1
	// Optimum: obj = -0.05 at x = (0.04, 0, 1, 0) scaled; known optimum -1/20.
	p := NewProblem(4)
	p.SetObjective([]float64{-0.75, 150, -0.02, 6})
	p.AddConstraint([]Term{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddConstraint([]Term{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddConstraint([]Term{{2, 1}}, LE, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective+0.05) > tol {
		t.Fatalf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestDualsLE(t *testing.T) {
	// min -x0 - 2x1 s.t. x0 + x1 <= 4, x1 <= 2.
	// Duals (for min with <=): y = (-1, -1): strong duality b·y = -6.
	p := NewProblem(2)
	p.SetObjective([]float64{-1, -2})
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 1}}, LE, 2)
	sol := solveOK(t, p)
	if len(sol.Duals) != 2 {
		t.Fatalf("len(duals) = %d", len(sol.Duals))
	}
	dualObj := 4*sol.Duals[0] + 2*sol.Duals[1]
	if math.Abs(dualObj-sol.Objective) > tol {
		t.Fatalf("strong duality violated: dual %v primal %v (y=%v)", dualObj, sol.Objective, sol.Duals)
	}
	for i, y := range sol.Duals {
		if y > tol {
			t.Fatalf("dual %d = %v, want <= 0 for a <= row in a min problem", i, y)
		}
	}
}

func TestDualsMixed(t *testing.T) {
	// min 2x0 + 3x1 s.t. x0 + x1 = 10, x0 >= 2, x1 >= 3.
	// Optimum x = (7, 3), obj = 23.
	p := NewProblem(2)
	p.SetObjective([]float64{2, 3})
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 10)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	p.AddConstraint([]Term{{1, 1}}, GE, 3)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-23) > tol {
		t.Fatalf("objective = %v, want 23", sol.Objective)
	}
	dualObj := 10*sol.Duals[0] + 2*sol.Duals[1] + 3*sol.Duals[2]
	if math.Abs(dualObj-sol.Objective) > tol {
		t.Fatalf("strong duality violated: dual %v primal %v (y=%v)", dualObj, sol.Objective, sol.Duals)
	}
}

func TestDuplicateTermsMerged(t *testing.T) {
	// x0 + x0 <= 4 must behave as 2x0 <= 4.
	p := NewProblem(1)
	p.SetObjective([]float64{-1})
	p.AddConstraint([]Term{{0, 1}, {0, 1}}, LE, 4)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-2) > tol {
		t.Fatalf("x0 = %v, want 2", sol.X[0])
	}
}

func TestZeroCoefficientsDropped(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{1, 0})
	p.AddConstraint([]Term{{0, 1}, {1, 0}}, GE, 5)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-5) > tol {
		t.Fatalf("x0 = %v, want 5", sol.X[0])
	}
}

type plane struct {
	a   []float64
	rhs float64
}

// bruteForce enumerates all basic feasible points of a small LP (choosing
// n active constraints among rows and x_j = 0 planes) and returns the best
// objective. Second return is false when no feasible vertex exists.
func bruteForce(p *Problem, n int) (float64, bool) {
	var planes []plane
	for _, c := range p.constraints {
		a := make([]float64, n)
		for _, t := range c.Terms {
			a[t.Var] += t.Coef
		}
		planes = append(planes, plane{a, c.RHS})
	}
	for j := 0; j < n; j++ {
		a := make([]float64, n)
		a[j] = 1
		planes = append(planes, plane{a, 0})
	}

	best := math.Inf(1)
	found := false
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x := solveSquare(planes, idx, n)
			if x == nil {
				return
			}
			if p.Violation(x) > 1e-7 {
				return
			}
			if v := p.Objective(x); v < best {
				best = v
				found = true
			}
			return
		}
		for i := start; i < len(planes); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

func solveSquare(planes []plane, idx []int, n int) []float64 {
	a := make([]float64, n*n)
	b := make([]float64, n)
	for r, pi := range idx {
		copy(a[r*n:(r+1)*n], planes[pi].a)
		b[r] = planes[pi].rhs
	}
	inv, ok := invertDense(a, n)
	if !ok {
		return nil
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			x[i] += inv[i*n+k] * b[k]
		}
	}
	return x
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(2) // 2-3 vars
		m := 2 + rng.Intn(3) // 2-4 rows
		p := NewProblem(n)
		c := make([]float64, n)
		for j := range c {
			c[j] = math.Round(rng.NormFloat64()*4*8) / 8
		}
		p.SetObjective(c)
		hasUpper := false
		for i := 0; i < m; i++ {
			terms := make([]Term, 0, n)
			allPos := true
			for j := 0; j < n; j++ {
				v := math.Round(rng.NormFloat64()*3*8) / 8
				if v != 0 {
					terms = append(terms, Term{j, v})
				}
				if v <= 0 {
					allPos = false
				}
			}
			if len(terms) == 0 {
				terms = append(terms, Term{0, 1})
				allPos = false
			}
			op := []Op{LE, GE, EQ}[rng.Intn(3)]
			rhs := math.Round(rng.Float64()*10*8) / 8
			if op == LE && allPos {
				hasUpper = true
			}
			p.AddConstraint(terms, op, rhs)
		}
		if !hasUpper {
			// Bound the feasible region so the brute force is comparable
			// (avoids unbounded instances).
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				terms[j] = Term{j, 1}
			}
			p.AddConstraint(terms, LE, 50)
		}

		want, feasible := bruteForce(p, n)
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !feasible {
			if sol.Status == Optimal {
				t.Fatalf("trial %d: simplex says optimal %v, brute force says infeasible\n%s",
					trial, sol.Objective, p.DebugString())
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, brute force found optimum %v\n%s",
				trial, sol.Status, want, p.DebugString())
		}
		if math.Abs(sol.Objective-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("trial %d: objective %v, brute force %v\n%s",
				trial, sol.Objective, want, p.DebugString())
		}
	}
}

func TestStrongDualityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(4)
		m := 2 + rng.Intn(4)
		p := NewProblem(n)
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64() * 5 // nonneg costs => bounded below
		}
		p.SetObjective(c)
		rhs := make([]float64, m)
		for i := 0; i < m; i++ {
			terms := make([]Term, 0, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.7 {
					terms = append(terms, Term{j, rng.Float64() * 3})
				}
			}
			if len(terms) == 0 {
				terms = append(terms, Term{rng.Intn(n), 1})
			}
			rhs[i] = 1 + rng.Float64()*5
			p.AddConstraint(terms, GE, rhs[i]) // covering LP: always feasible
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		dual := 0.0
		for i, y := range sol.Duals {
			dual += rhs[i] * y
		}
		if math.Abs(dual-sol.Objective) > 1e-5*(1+math.Abs(dual)) {
			t.Fatalf("trial %d: dual %v != primal %v", trial, dual, sol.Objective)
		}
	}
}

func TestLargerTransportation(t *testing.T) {
	// A 6x6 transportation problem with known optimum (balanced, costs i*j
	// pattern): supply 10 each, demand 10 each; min cost pairs i with
	// opposite j. Verify against brute-force assignment on the same costs
	// computed by the Hungarian-style exhaustive search over permutations
	// (transportation optimum with equal supplies/demands is a permutation
	// assignment scaled by 10).
	const k = 6
	p := NewProblem(k * k)
	cost := make([]float64, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			cost[i*k+j] = float64((i + 1) * (j + 1))
		}
	}
	p.SetObjective(cost)
	for i := 0; i < k; i++ {
		terms := make([]Term, k)
		for j := 0; j < k; j++ {
			terms[j] = Term{i*k + j, 1}
		}
		p.AddConstraint(terms, EQ, 10)
	}
	for j := 0; j < k; j++ {
		terms := make([]Term, k)
		for i := 0; i < k; i++ {
			terms[i] = Term{i*k + j, 1}
		}
		p.AddConstraint(terms, EQ, 10)
	}
	sol := solveOK(t, p)

	// Exhaustive permutation minimum.
	perm := []int{0, 1, 2, 3, 4, 5}
	best := math.Inf(1)
	var permute func(k int)
	permute = func(kk int) {
		if kk == len(perm) {
			tot := 0.0
			for i, j := range perm {
				tot += cost[i*k+j] * 10
			}
			if tot < best {
				best = tot
			}
			return
		}
		for i := kk; i < len(perm); i++ {
			perm[kk], perm[i] = perm[i], perm[kk]
			permute(kk + 1)
			perm[kk], perm[i] = perm[i], perm[kk]
		}
	}
	permute(0)
	if math.Abs(sol.Objective-best) > tol {
		t.Fatalf("objective %v, want %v", sol.Objective, best)
	}
}

func TestIterationCountReported(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{-1, -1})
	p.AddConstraint([]Term{{0, 1}, {1, 2}}, LE, 4)
	p.AddConstraint([]Term{{0, 2}, {1, 1}}, LE, 4)
	sol := solveOK(t, p)
	if sol.Iterations <= 0 {
		t.Fatalf("iterations = %d, want > 0", sol.Iterations)
	}
}
