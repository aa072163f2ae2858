package lp

import (
	"fmt"
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
