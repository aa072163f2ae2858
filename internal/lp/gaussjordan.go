package lp

import "math"

// gaussJordan inverts a simplex basis matrix by sparse Gauss-Jordan
// elimination with partial pivoting. It keeps the possibly-nonzero
// pattern of the matrix under reduction (per column its rows, per row
// its columns, fill-in included) and of the inverse (per row its
// columns), applies row swaps as a permutation, and updates only the
// pattern entries of each pivot row. The pricing duals' bases hold at
// most two nonzeros per column, so an inversion costs about its
// eliminations instead of the O(m²) scans of a dense sweep.
//
// It computes the dense Gauss-Jordan's inverse bit for bit: the same
// pivot (the largest |v| at or below the pivot position, the lowest
// position on a tie) and, for every pattern entry, the same operations
// in the same order. An entry outside the pattern is an exact zero that
// the dense sweep only scales or subtracts a ±0 from, so at most the
// sign of a zero differs. No consumer sees it: every sum over B⁻¹ starts
// at +0, which adding a ±0 leaves +0, and a pivot update keeps a zero a
// zero. Columns left of the pivot are never read again, so their
// entries are not updated.
//
// The index scratch is sized once for m rows; an inversion allocates
// nothing.
type gaussJordan struct {
	m int
	// colRows[k*m:][:colN[k]] are the rows of column k of the matrix,
	// rowCols[r*m:][:rowN[r]] the columns of its storage row r, and
	// invCols[r*m:][:invN[r]] the columns of storage row r of the
	// inverse; inWork and inInv are the same patterns as m×m membership
	// masks.
	colRows, rowCols, invCols []int32
	colN, rowN, invN          []int32
	inWork, inInv             []bool
	// perm[q] is the storage row at position q, pos its inverse.
	perm, pos []int32
}

func newGaussJordan(m int) gaussJordan {
	return gaussJordan{
		m:       m,
		colRows: make([]int32, m*m),
		rowCols: make([]int32, m*m),
		invCols: make([]int32, m*m),
		colN:    make([]int32, m),
		rowN:    make([]int32, m),
		invN:    make([]int32, m),
		inWork:  make([]bool, m*m),
		inInv:   make([]bool, m*m),
		perm:    make([]int32, m),
		pos:     make([]int32, m),
	}
}

// reset empties the matrix pattern before a new one is placed.
func (g *gaussJordan) reset() {
	clear(g.colN)
	clear(g.rowN)
	clear(g.inWork)
}

// place sets work[r][k] = v, an entry of the matrix to invert, and adds
// it to the pattern. work must be zero at every entry not placed since
// reset, and each entry is placed at most once.
func (g *gaussJordan) place(work []float64, r, k int, v float64) {
	m := g.m
	work[r*m+k] = v
	g.inWork[r*m+k] = true
	g.colRows[k*m+int(g.colN[k])] = int32(r)
	g.colN[k]++
	g.rowCols[r*m+int(g.rowN[r])] = int32(k)
	g.rowN[r]++
}

// invert inverts the m×m row-major matrix placed in work, using inv as
// scratch. On success work holds the inverse; on a (numerically)
// singular matrix, a pivot below 1e-12, it reports false and both
// buffers hold garbage.
func (g *gaussJordan) invert(work, inv []float64) bool {
	m := g.m
	clear(inv)
	clear(g.inInv)
	for r := 0; r < m; r++ {
		inv[r*m+r] = 1
		g.inInv[r*m+r] = true
		g.invCols[r*m] = int32(r)
		g.invN[r] = 1
		g.perm[r], g.pos[r] = int32(r), int32(r)
	}
	for col := 0; col < m; col++ {
		rows := g.colRows[col*m:][:g.colN[col]]
		p := col
		best := math.Abs(work[int(g.perm[col])*m+col])
		for _, r := range rows {
			q := int(g.pos[r])
			if q <= col {
				continue
			}
			//lint:ignore floateq the dense sweep's pivot rule: of equal magnitudes, the lowest position wins; bitwise identity is the contract here
			if v := math.Abs(work[int(r)*m+col]); v > best || (v == best && q < p) {
				best, p = v, q
			}
		}
		if best < 1e-12 {
			return false
		}
		if p != col {
			a, b := g.perm[col], g.perm[p]
			g.perm[col], g.perm[p] = b, a
			g.pos[a], g.pos[b] = int32(p), int32(col)
		}
		ps := g.perm[col]
		pr := int(ps) * m
		pivInv := 1 / work[pr+col]
		wcols := g.rowCols[pr:][:g.rowN[ps]]
		icols := g.invCols[pr:][:g.invN[ps]]
		for _, k := range wcols {
			if int(k) > col {
				work[pr+int(k)] *= pivInv
			}
		}
		for _, k := range icols {
			inv[pr+int(k)] *= pivInv
		}
		for _, r := range rows {
			if r == ps {
				continue
			}
			rr := int(r) * m
			f := work[rr+col]
			if f == 0 {
				continue
			}
			for _, k := range wcols {
				if int(k) <= col {
					continue
				}
				i := rr + int(k)
				if !g.inWork[i] { // fill-in
					g.inWork[i] = true
					g.rowCols[rr+int(g.rowN[r])] = k
					g.rowN[r]++
					g.colRows[int(k)*m+int(g.colN[k])] = r
					g.colN[k]++
				}
				work[i] -= f * work[pr+int(k)]
			}
			for _, k := range icols {
				i := rr + int(k)
				if !g.inInv[i] {
					g.inInv[i] = true
					g.invCols[rr+int(g.invN[r])] = k
					g.invN[r]++
				}
				inv[i] -= f * inv[pr+int(k)]
			}
		}
	}
	for q := 0; q < m; q++ {
		copy(work[q*m:(q+1)*m], inv[int(g.perm[q])*m:][:m])
	}
	return true
}
