package core

import (
	"fmt"
	"math"

	"repro/internal/geoi"
	"repro/internal/lp"
)

// DirectOptions tune the monolithic LP solve of D-VLP.
type DirectOptions struct {
	// FullConstraints switches from the reduced (Algorithm 1) Geo-I rows
	// to the complete O(K³) enumeration — only viable for tiny K, and
	// used by tests to verify the reduction preserves the optimum.
	FullConstraints bool
}

// DirectResult reports the monolithic solve.
type DirectResult struct {
	Mechanism *Mechanism
	ETDD      float64
	// Rows and Cols report the LP size actually solved.
	Rows, Cols int
	Iterations int
}

// SolveDirect solves D-VLP as one LP over the K² decision variables
// z_{i,l}. The formulation follows Section 4.1 exactly:
//
//	min  Σ_{i,l} c_{i,l} z_{i,l}
//	s.t. Σ_l z_{i,l} = 1                            ∀i      (Eq. 21)
//	     z_{i,j} − e^{ε·D} z_{l,j} ≤ 0   constrained pairs  (Eq. 20)
//
// With reduced constraints the pair set is Algorithm 1's; each unordered
// pair contributes both directions. Intended for small K (the LP has K²
// variables); the column-generation solver scales much further. It
// runs to completion: only tests and benchmarks call it, as an oracle.
//
//lint:ignore ctxflow,deadcode the monolithic-LP oracle of the core, attack and planar tests and the root benchmarks: it runs to completion, and the serving path solves through SolveCGCtx
func SolveDirect(pr *Problem, opts DirectOptions) (*DirectResult, error) {
	k := pr.Part.K()
	prob := lp.NewProblem(k * k)
	prob.SetObjective(pr.Costs)

	// Unit-measure rows.
	for i := 0; i < k; i++ {
		terms := make([]lp.Term, k)
		for l := 0; l < k; l++ {
			terms[l] = lp.Term{Var: i*k + l, Coef: 1}
		}
		prob.AddConstraint(terms, lp.EQ, 1)
	}

	// Geo-I rows.
	addPair := func(a, b int, d, eps float64) {
		f := math.Exp(eps * d)
		for j := 0; j < k; j++ {
			prob.AddConstraint([]lp.Term{
				{Var: a*k + j, Coef: 1},
				{Var: b*k + j, Coef: -f},
			}, lp.LE, 0)
		}
	}
	if opts.FullConstraints {
		for _, p := range geoi.FullPairs(pr.Part, pr.Radius) {
			addPair(p.I, p.L, p.D, pr.PairEps(p.I, p.L))
		}
	} else {
		for _, p := range pr.Red().Pairs {
			eps := pr.reducedPairEps(p)
			addPair(p.A, p.B, p.D, eps)
			addPair(p.B, p.A, p.D, eps)
		}
	}

	sol, err := lp.Solve(prob)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: direct D-VLP solve ended %v", sol.Status)
	}

	z := make([]float64, k*k)
	copy(z, sol.X)
	normalizeRows(z, k)
	m := &Mechanism{Part: pr.Part, Z: z}
	return &DirectResult{
		Mechanism:  m,
		ETDD:       pr.ETDD(m),
		Rows:       prob.NumConstraints(),
		Cols:       prob.NumVars(),
		Iterations: sol.Iterations,
	}, nil
}
