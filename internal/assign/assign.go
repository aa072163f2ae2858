// Package assign implements the server-side multi-vehicle task
// assignment of the paper's Fig. 14 experiment: given an estimated
// travel-cost matrix (based on the workers' *obfuscated* locations), the
// server matches every task to a distinct vehicle by an optimal
// minimum-cost matching (the O(n³) Hungarian algorithm with potentials);
// the experiment then accounts the matching's *true* travel cost.
package assign

import (
	"fmt"
	"math"
)

// Hungarian solves the rectangular assignment problem: cost[i][j] is the
// cost of assigning row i (task) to column j (vehicle), with
// len(cost) ≤ len(cost[0]). It returns, per row, the chosen column —
// all distinct — and the minimal total cost.
func Hungarian(cost [][]float64) ([]int, float64, error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	if m < n {
		return nil, 0, fmt.Errorf("assign: %d rows exceed %d columns", n, m)
	}
	for i, row := range cost {
		if len(row) != m {
			return nil, 0, fmt.Errorf("assign: row %d has %d entries, want %d", i, len(row), m)
		}
		for j, c := range row {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, 0, fmt.Errorf("assign: cost[%d][%d] = %v", i, j, c)
			}
		}
	}

	// Hungarian with row/column potentials (1-indexed internals).
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)   // p[j] = row matched to column j
	way := make([]int, m+1) // alternating-path backtracking
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	out := make([]int, n)
	total := 0.0
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			out[p[j]-1] = j - 1
			total += cost[p[j]-1][j-1]
		}
	}
	return out, total, nil
}
