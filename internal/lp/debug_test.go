package lp

import (
	"fmt"
	"math"
	"sort"
)

// DebugString renders a tiny problem for test-failure messages. Rows are
// rendered in index order; only problems with few variables stay legible.
func (p *Problem) DebugString() string {
	out := "min"
	for j, c := range p.objective {
		if c != 0 {
			out += fmt.Sprintf(" %+gx%d", c, j)
		}
	}
	out += "\n"
	for _, c := range p.constraints {
		terms := append([]Term(nil), c.Terms...)
		sort.Slice(terms, func(a, b int) bool { return terms[a].Var < terms[b].Var })
		for _, t := range terms {
			out += fmt.Sprintf(" %+gx%d", t.Coef, t.Var)
		}
		out += fmt.Sprintf(" %s %g\n", c.Op, c.RHS)
	}
	return out
}

// Objective evaluates c·x for this problem's objective.
func (p *Problem) Objective(x []float64) float64 {
	v := 0.0
	for j, c := range p.objective {
		v += c * x[j]
	}
	return v
}

// invertDense inverts an m×m row-major matrix with Gauss-Jordan
// elimination and partial pivoting. It reports false for (numerically)
// singular input.
func invertDense(a []float64, m int) ([]float64, bool) {
	work := make([]float64, len(a))
	copy(work, a)
	inv := make([]float64, m*m)
	if !invertDenseInto(work, inv, m) {
		return nil, false
	}
	return inv, true
}

// NumRows returns the compiled row count.
func (pp *Prepared) NumRows() int { return pp.s.m }

// Solve runs a cold two-phase solve from the all-artificial basis. The
// returned Solution (including its X and Duals slices) is owned by the
// Prepared instance and invalidated by the next solve.
func (pp *Prepared) Solve() (*Solution, error) { return pp.solveWith(nil) }

// Violation reports the largest constraint violation of x under the
// problem's rows, for solution verification.
func (p *Problem) Violation(x []float64) float64 {
	worst := 0.0
	for _, c := range p.constraints {
		lhs := 0.0
		for _, t := range c.Terms {
			lhs += t.Coef * x[t.Var]
		}
		var v float64
		switch c.Op {
		case LE:
			v = lhs - c.RHS
		case GE:
			v = c.RHS - lhs
		case EQ:
			v = math.Abs(lhs - c.RHS)
		}
		if v > worst {
			worst = v
		}
	}
	for _, xi := range x {
		if -xi > worst {
			worst = -xi
		}
	}
	return worst
}
