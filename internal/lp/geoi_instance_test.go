package lp

import (
	"math"
	"testing"
)

// xorshift64 is the deterministic generator behind the randomized
// Geo-I instances.
type xorshift64 uint64

func (r *xorshift64) next() float64 {
	v := uint64(*r)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*r = xorshift64(v)
	return float64(v%(1<<20)) / (1 << 20)
}

// geoIInstance builds a randomized pricing-shaped Geo-I LP: K variables
// z with pair rows z_a − f·z_b ≤ 0 (f = e^{εd} ≥ 1) along a random path
// structure, unit-box rows z_i ≤ 1, a random objective, and degenerate
// decorations the solvers must tolerate: a singleton equality,
// duplicate and redundant rows, and an empty column.
func geoIInstance(rng *xorshift64, k int) *Problem {
	p := NewProblem(k + 1) // +1: an empty column
	for i := 0; i < k; i++ {
		p.SetObjectiveCoeff(i, 2*rng.next()-1)
	}
	p.SetObjectiveCoeff(k, 0.5+rng.next())
	for i := 0; i+1 < k; i++ {
		f := math.Exp(0.4 + rng.next())
		p.AddConstraint([]Term{{i, 1}, {i + 1, -f}}, LE, 0)
		p.AddConstraint([]Term{{i + 1, 1}, {i, -f}}, LE, 0)
	}
	for i := 0; i < k; i++ {
		p.AddConstraint([]Term{{i, 1}}, LE, 1)
	}
	// A mass row keeps the minimum bounded even with negative costs.
	terms := make([]Term, k)
	for i := range terms {
		terms[i] = Term{Var: i, Coef: 1}
	}
	p.AddConstraint(terms, GE, 0.5)
	j := int(rng.next() * float64(k))
	p.AddConstraint([]Term{{j, 2}}, EQ, 2*0.5) // fixes z_j = 0.5
	p.AddConstraint([]Term{{j, 1}}, GE, -1)    // redundant
	p.AddConstraint(terms, GE, 0.5)            // duplicate of the mass row
	return p
}

// TestSparsePricingSweepAllocs guards the sparse pricing path: once a
// Prepared instance on the pricing-shaped dual LP is warm, retuning the
// right-hand sides and re-solving (the per-round CG pricing pattern,
// which runs the CSR pricing sweep every pivot) must stay allocation-
// free in steady state.
func TestSparsePricingSweepAllocs(t *testing.T) {
	rng := xorshift64(0x94d049bb133111eb)
	k := 8
	p := geoIInstance(&rng, k)
	pp, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Solve(); err != nil {
		t.Fatal(err)
	}
	basis := pp.Basis(nil)
	if _, err := pp.SolveFrom(basis); err != nil {
		t.Fatal(err)
	}
	basis = pp.Basis(basis)
	step := 0
	allocs := testing.AllocsPerRun(20, func() {
		step++
		pp.SetRHS(2*(k-1), 0.9+0.01*float64(step%5))
		if _, err := pp.SolveFrom(basis); err != nil {
			t.Fatal(err)
		}
		basis = pp.Basis(basis)
	})
	if allocs > 2 {
		t.Fatalf("sparse pricing re-solve allocates %v objects per run, want ≤ 2", allocs)
	}
}

// TestIPMMatchesSimplexDegenerate checks that IPMSolver, on the
// equality form, and the simplex agree on a Geo-I instance with
// duplicate, redundant and singleton rows.
func TestIPMMatchesSimplexDegenerate(t *testing.T) {
	rng := xorshift64(0x6a09e667f3bcc909)
	p := geoIInstance(&rng, 6)
	sx, err := Solve(p)
	if err != nil || sx.Status != Optimal {
		t.Fatalf("simplex: %+v, %v", sx, err)
	}
	ipm := solveIPMOK(t, withSlacks(p))
	if d := math.Abs(sx.Objective - ipm.Objective); d > 1e-6*(1+math.Abs(sx.Objective)) {
		t.Fatalf("objectives differ: simplex %v, IPM %v", sx.Objective, ipm.Objective)
	}
}
