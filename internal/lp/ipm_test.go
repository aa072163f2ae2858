package lp

import (
	"math"
	"math/rand"
	"testing"
)

// withSlacks restates p in the equality form IPMSolver accepts: each
// ≤ row gains a +1 slack column and each ≥ row a −1 surplus column,
// appended after p's variables in row order. The new variables are
// free of cost, so the optimum, its objective and the row duals are
// p's.
func withSlacks(p *Problem) *Problem {
	n := p.numVars
	for _, c := range p.constraints {
		if c.Op != EQ {
			n++
		}
	}
	eq := NewProblem(n)
	copy(eq.objective, p.objective)
	slack := p.numVars
	for _, c := range p.constraints {
		terms := append([]Term(nil), c.Terms...)
		switch c.Op {
		case LE:
			terms = append(terms, Term{Var: slack, Coef: 1})
			slack++
		case GE:
			terms = append(terms, Term{Var: slack, Coef: -1})
			slack++
		}
		eq.AddConstraint(terms, EQ, c.RHS)
	}
	return eq
}

// solveIPMOK solves the equality-form problem with a fresh IPMSolver
// and checks the result is optimal and feasible.
func solveIPMOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sv, err := NewIPMSolver(p)
	if err != nil {
		t.Fatalf("NewIPMSolver: %v\n%s", err, p.DebugString())
	}
	sol, err := sv.Solve()
	if err != nil {
		t.Fatalf("IPMSolver.Solve: %v\n%s", err, p.DebugString())
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal\n%s", sol.Status, p.DebugString())
	}
	if v := p.Violation(sol.X); v > 1e-5 {
		t.Fatalf("solution violates constraints by %g\n%s", v, p.DebugString())
	}
	return sol
}

func TestIPMSimpleLE(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{-1, -2})
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 1}}, LE, 2)
	sol := solveIPMOK(t, withSlacks(p))
	if math.Abs(sol.Objective+6) > 1e-5 {
		t.Fatalf("objective = %v, want -6", sol.Objective)
	}
}

func TestIPMEquality(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.AddConstraint([]Term{{0, 1}, {1, 2}}, EQ, 3)
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, EQ, 0)
	sol := solveIPMOK(t, p)
	if math.Abs(sol.Objective-2) > 1e-5 {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestIPMMatchesSimplexRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(4)
		m := 2 + rng.Intn(4)
		p := NewProblem(n)
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64() * 5
		}
		p.SetObjective(c)
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
			p.AddConstraint(terms, GE, 1+rng.Float64()*5)
		}
		sx, err := Solve(p)
		if err != nil || sx.Status != Optimal {
			t.Fatalf("trial %d simplex: %v %v", trial, err, sx.Status)
		}
		si := solveIPMOK(t, withSlacks(p))
		if math.Abs(sx.Objective-si.Objective) > 1e-4*(1+math.Abs(sx.Objective)) {
			t.Fatalf("trial %d: IPM %v != simplex %v\n%s", trial, si.Objective, sx.Objective, p.DebugString())
		}
	}
}

func TestIPMDualsStrongDuality(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{2, 3})
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 10)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	p.AddConstraint([]Term{{1, 1}}, GE, 3)
	sol := solveIPMOK(t, withSlacks(p))
	dual := 10*sol.Duals[0] + 2*sol.Duals[1] + 3*sol.Duals[2]
	if math.Abs(dual-sol.Objective) > 1e-5*(1+math.Abs(dual)) {
		t.Fatalf("strong duality violated: dual %v primal %v", dual, sol.Objective)
	}
	sx, err := Solve(p)
	if err != nil || sx.Status != Optimal {
		t.Fatalf("simplex: %v %v", err, sx.Status)
	}
	if math.Abs(sx.Objective-sol.Objective) > 1e-5*(1+math.Abs(sx.Objective)) {
		t.Fatalf("IPM %v != simplex %v", sol.Objective, sx.Objective)
	}
}

func TestIPMDegenerateParallelColumns(t *testing.T) {
	// Many near-parallel columns under equality rows: the structure that
	// stalls pivoting methods. IPM must sail through. Row i is drawn at
	// scale base_i and divided by it: IPMSolver takes rows as given, so
	// they arrive equilibrated, as the master's do.
	rng := rand.New(rand.NewSource(12))
	const m, n = 30, 120
	p := NewProblem(n)
	base := make([]float64, m)
	for i := range base {
		base[i] = rng.Float64()
	}
	for j := 0; j < n; j++ {
		p.SetObjectiveCoeff(j, rng.Float64())
	}
	rows := make([][]Term, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			v := base[i] * (1 + 1e-4*rng.NormFloat64())
			rows[i] = append(rows[i], Term{j, v / base[i]})
		}
	}
	for i := 0; i < m; i++ {
		p.AddConstraint(rows[i], EQ, 10)
	}
	sol := solveIPMOK(t, p)
	if sol.Iterations >= 200 {
		t.Fatalf("IPM failed to converge in %d iterations", sol.Iterations)
	}
	sx, err := Solve(p)
	if err != nil || sx.Status != Optimal {
		t.Fatalf("simplex: %v %v", err, sx.Status)
	}
	// On this ill-conditioned instance the IPM ends on an accepted
	// iterate (run's pAccept/dAccept/gapAccept thresholds, not its
	// exact tolerance), whose objective sits about 3e-4 relative above
	// the simplex's.
	if math.Abs(sx.Objective-sol.Objective) > 1e-3*(1+math.Abs(sx.Objective)) {
		t.Fatalf("IPM %v != simplex %v", sol.Objective, sx.Objective)
	}
}

// choleskyIntoRef is the row-at-a-time factorisation choleskyInto must
// reproduce bit for bit: entry (i, j) from one four-chain dot product
// of row i with row j, the tail in chain 0, combined (s0+s1)+(s2+s3).
func choleskyIntoRef(a, l []float64, m int) bool {
	for i := 0; i < m; i++ {
		li := l[i*m : i*m+i+1]
		for j := 0; j <= i; j++ {
			lj := l[j*m : j*m+j+1]
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+3 < j; k += 4 {
				s0 += li[k] * lj[k]
				s1 += li[k+1] * lj[k+1]
				s2 += li[k+2] * lj[k+2]
				s3 += li[k+3] * lj[k+3]
			}
			for ; k < j; k++ {
				s0 += li[k] * lj[k]
			}
			sum := a[i*m+j] - ((s0 + s1) + (s2 + s3))
			if i == j {
				if sum <= 0 {
					return false
				}
				li[i] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return true
}

// spdMatrix draws a seeded m×m symmetric positive-definite matrix shaped
// like the master's normal equations: G·D·Gᵀ over 2m random columns plus
// a small ridge, with entries spanning several magnitudes.
func spdMatrix(rng *rand.Rand, m int) []float64 {
	n := 2 * m
	g := make([]float64, m*n)
	for i := range g {
		if rng.Intn(3) > 0 {
			g[i] = rng.Float64()
		}
	}
	a := make([]float64, m*m)
	for c := 0; c < n; c++ {
		d := math.Exp(8 * (rng.Float64() - 0.5))
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				a[i*m+j] += g[i*n+c] * d * g[j*n+c]
			}
		}
	}
	for i := 0; i < m; i++ {
		a[i*m+i] += 1e-6
	}
	return a
}

// TestCholeskyBitIdentical compares choleskyInto with its row-at-a-time
// oracle on seeded SPD matrices of every size parity and of the master's
// sizes (2K = 48, 96), and on indefinite ones, whose breakdown both must
// report: the factor's lower triangle must match bit for bit.
func TestCholeskyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range []int{1, 2, 3, 7, 48, 95, 96} {
		for trial := 0; trial < 8; trial++ {
			a := spdMatrix(rng, m)
			if trial == 7 {
				// Indefinite: a negative pivot at a random row.
				r := rng.Intn(m)
				a[r*m+r] = -a[r*m+r]
			}
			got, want := make([]float64, m*m), make([]float64, m*m)
			okGot, okWant := choleskyInto(a, got, m), choleskyIntoRef(a, want, m)
			if okGot != okWant {
				t.Fatalf("m=%d trial %d: ok=%v, oracle %v", m, trial, okGot, okWant)
			}
			if okWant != (trial != 7) {
				t.Fatalf("m=%d trial %d: oracle ok=%v", m, trial, okWant)
			}
			if !okWant {
				continue
			}
			for i := 0; i < m; i++ {
				for j := 0; j <= i; j++ {
					if math.Float64bits(got[i*m+j]) != math.Float64bits(want[i*m+j]) {
						t.Fatalf("m=%d trial %d: L[%d][%d] = %x, oracle %x", m, trial, i, j, got[i*m+j], want[i*m+j])
					}
				}
			}
		}
	}
}

// BenchmarkCholesky times choleskyInto against its row-at-a-time oracle
// on a 96×96 matrix, the K=48 master's normal equations.
func BenchmarkCholesky(b *testing.B) {
	const m = 96
	a := spdMatrix(rand.New(rand.NewSource(43)), m)
	l := make([]float64, m*m)
	for _, bc := range []struct {
		name string
		f    func(a, l []float64, m int) bool
	}{{"pairs", choleskyInto}, {"oracle", choleskyIntoRef}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !bc.f(a, l, m) {
					b.Fatal("breakdown")
				}
			}
		})
	}
}
