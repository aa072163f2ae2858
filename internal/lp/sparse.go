package lp

import "math"

// csc is a compressed-sparse-column constraint matrix: one shared pool
// of row indices and values, with colPtr[j]..colPtr[j+1] delimiting
// column j. Compared to a slice-of-slices layout this stores the whole
// matrix in three allocations, keeps columns adjacent in memory (the
// pricing and normal-equations kernels stream through all columns every
// pass), and makes appending a column at the tail — the only growth
// operation column generation needs — a pair of amortised appends.
//
// Invariant: within each column, row indices are strictly ascending.
// Every builder below merges duplicate (row, col) entries to maintain
// it; formNormal and the contiguous-run detection depend on it.
type csc struct {
	colPtr []int32
	rows   []int32
	vals   []float64
}

// numCols returns the number of columns.
func (a *csc) numCols() int { return len(a.colPtr) - 1 }

// nnz returns the number of stored entries.
func (a *csc) nnz() int { return len(a.rows) }

// col returns column j's row indices and values as subslices of the
// pool. The slices stay valid until the next appendCol/appendUnitCol.
func (a *csc) col(j int) ([]int32, []float64) {
	lo, hi := a.colPtr[j], a.colPtr[j+1]
	return a.rows[lo:hi], a.vals[lo:hi]
}

// appendUnitCol appends a single-entry column (slack, surplus or
// artificial), returning its index.
func (a *csc) appendUnitCol(row int32, val float64) int {
	j := a.numCols()
	a.rows = append(a.rows, row)
	a.vals = append(a.vals, val)
	a.colPtr = append(a.colPtr, int32(len(a.rows)))
	return j
}

// appendCol appends a column whose entries (Term.Var a row index) are
// already in strictly ascending row order, returning its index.
func (a *csc) appendCol(entries []Term) int {
	j := a.numCols()
	for _, e := range entries {
		a.rows = append(a.rows, int32(e.Var))
		a.vals = append(a.vals, e.Coef)
	}
	a.colPtr = append(a.colPtr, int32(len(a.rows)))
	return j
}

// newCSCBuilder starts a builder for a matrix over numVars structural
// columns, with row i's coefficients multiplied by rowFactor[i] (nil
// leaves them as given); extraCap reserves pool headroom for unit
// columns appended after the build (slacks, artificials) so the tail
// appends do not reallocate.
func newCSCBuilder(constraints []Constraint, numVars, extraCap int, rowFactor []float64) csc {
	// Pass 1: count entries per column (duplicates included; merging
	// only shrinks columns, compacted below).
	counts := make([]int32, numVars+1)
	for _, c := range constraints {
		for _, t := range c.Terms {
			counts[t.Var+1]++
		}
	}
	for j := 0; j < numVars; j++ {
		counts[j+1] += counts[j]
	}
	total := int(counts[numVars])

	a := csc{
		colPtr: counts,
		rows:   make([]int32, total, total+extraCap),
		vals:   make([]float64, total, total+extraCap),
	}

	// Pass 2: fill. Rows are visited in ascending order, so each
	// column's entries land ascending; duplicate (row, col) terms are
	// merged in place. next[j] tracks the fill cursor of column j.
	next := make([]int32, numVars)
	copy(next, a.colPtr[:numVars])
	for i, c := range constraints {
		f := 1.0
		if rowFactor != nil {
			f = rowFactor[i]
		}
		for _, t := range c.Terms {
			k := next[t.Var]
			if lo := a.colPtr[t.Var]; k > lo && a.rows[k-1] == int32(i) {
				a.vals[k-1] += f * t.Coef
				continue
			}
			a.rows[k] = int32(i)
			a.vals[k] = f * t.Coef
			next[t.Var] = k + 1
		}
	}

	// Pass 3: compact out the gaps merging left behind.
	w := int32(0)
	for j := 0; j < numVars; j++ {
		lo, hi := a.colPtr[j], next[j]
		a.colPtr[j] = w
		for k := lo; k < hi; k++ {
			a.rows[w] = a.rows[k]
			a.vals[w] = a.vals[k]
			w++
		}
	}
	a.colPtr[numVars] = w
	a.rows = a.rows[:w]
	a.vals = a.vals[:w]
	return a
}

// scaleCols equilibrates the first n columns: each is divided by its
// largest coefficient magnitude (an empty column is left alone), which
// turns columns with uniformly tiny coefficients into unit-scale ones
// and keeps pivot elements healthy. It returns the factors applied, so
// x_j = f_j·x'_j maps a scaled solution back.
func (a *csc) scaleCols(n int) []float64 {
	f := make([]float64, n)
	for j := range f {
		_, vals := a.col(j)
		maxAbs := 0.0
		for _, v := range vals {
			if x := math.Abs(v); x > maxAbs {
				maxAbs = x
			}
		}
		if maxAbs == 0 {
			f[j] = 1
			continue
		}
		f[j] = 1 / maxAbs
		for k := range vals {
			vals[k] *= f[j]
		}
	}
	return f
}

// rowScales returns each row's equilibration factor, the reciprocal of
// its largest coefficient magnitude (1 for an empty row). Geo-I rows mix
// unit and exponential-scale coefficients; unit-scale rows keep the
// basis and the normal equations well-conditioned. Duplicate Var
// entries are merged later; for scaling purposes the max unmerged
// magnitude is a fine (and cheaper) proxy.
func rowScales(cs []Constraint) []float64 {
	scale := make([]float64, len(cs))
	for i, c := range cs {
		maxAbs := 0.0
		for _, t := range c.Terms {
			if a := math.Abs(t.Coef); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			maxAbs = 1
		}
		scale[i] = 1 / maxAbs
	}
	return scale
}

// rowSigns returns −1 for each row with a negative right-hand side and
// +1 otherwise: the one-shot simplex negates those rows so that b ≥ 0.
func rowSigns(cs []Constraint) []int {
	sign := make([]int, len(cs))
	for i, c := range cs {
		sign[i] = 1
		if c.RHS < 0 {
			sign[i] = -1
		}
	}
	return sign
}

// standardForm compiles p's rows into the simplex's equality form. Row i is multiplied by sign[i] and by its rowScales
// factor, and one slack (+1) per ≤ row or surplus (−1) per ≥ row of the
// signed rows is appended after the original columns, in row order
// (negating a row swaps ≤ and ≥). artCap reserves pool headroom for
// that many unit columns appended afterwards.
func standardForm(p *Problem, sign []int, artCap int) (a csc, b, scale []float64) {
	cs := p.constraints
	scale = rowScales(cs)
	factor := make([]float64, len(cs))
	b = make([]float64, len(cs))
	ineq := 0
	for i, c := range cs {
		factor[i] = float64(sign[i]) * scale[i]
		b[i] = factor[i] * c.RHS
		if c.Op != EQ {
			ineq++
		}
	}
	a = newCSCBuilder(cs, p.numVars, ineq+artCap, factor)
	for i, c := range cs {
		if c.Op == EQ {
			continue
		}
		v := float64(sign[i])
		if c.Op == GE {
			v = -v
		}
		a.appendUnitCol(int32(i), v)
	}
	return a, b, scale
}

// pertFactors returns the per-row factors u_i ∈ (0.5, 1.5) of the
// simplex's anti-cycling perturbation, drawn from one fixed xorshift
// stream so every simplex layout breaks ties the same way.
func pertFactors(m int) []float64 {
	u := make([]float64, m)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range u {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		u[i] = 0.5 + float64(state%1024)/1024.0
	}
	return u
}

// perturbed returns the scaled right-hand side b nudged by its
// anti-cycling factor u (see pertFactors).
func perturbed(b, u float64) float64 {
	return b + 1e-8*u*(1+math.Abs(b))
}

// csr is a row-major mirror of a csc matrix. Sweeping it row by row
// replaces n short column gathers, whose per-column loop overhead
// dominates, with one pass over the nonzeros and streaming writes. The
// simplex's pricing pass and the IPM's residuals and Newton solves
// share it. Entries land in ascending column order within each row, so
// every product reaches its accumulator in the order a per-column
// gather or scatter delivers it, and the results are bit-identical.
// The mirror holds no accumulator: a caller's own vector takes Aᵀv, so
// one mirror may serve concurrent sweeps.
type csr struct {
	ptr, cols []int32
	vals      []float64
	next      []int32 // m: fill cursors of build
}

// build refreshes the mirror of the m-row matrix a, reusing its buffers.
// The first lead entries of each column in skip (ascending column
// indices; nil skips none) are left out: the IPM holds those in its
// dense panel.
func (r *csr) build(a *csc, m int, skip []int32, lead int) {
	n := a.numCols()
	if cap(r.ptr) < m+1 {
		r.ptr = make([]int32, m+1)
		r.next = make([]int32, m)
	}
	r.ptr, r.next = r.ptr[:m+1], r.next[:m]

	cnt := r.ptr
	for i := range cnt {
		cnt[i] = 0
	}
	// kept returns column j's entries that stay in the mirror, advancing
	// the skip cursor g.
	g := 0
	kept := func(j int) (lo, hi int32) {
		lo, hi = a.colPtr[j], a.colPtr[j+1]
		if g < len(skip) && int(skip[g]) == j {
			lo += int32(lead)
			g++
		}
		return lo, hi
	}
	for j := 0; j < n; j++ {
		lo, hi := kept(j)
		for _, row := range a.rows[lo:hi] {
			cnt[row+1]++
		}
	}
	for i := 0; i < m; i++ {
		cnt[i+1] += cnt[i]
	}
	nnz := int(cnt[m])
	if cap(r.cols) < nnz {
		r.cols = make([]int32, nnz, nnz+nnz/2)
		r.vals = make([]float64, nnz, nnz+nnz/2)
	}
	r.cols, r.vals = r.cols[:nnz], r.vals[:nnz]
	copy(r.next, cnt[:m])
	g = 0
	for j := 0; j < n; j++ {
		lo, hi := kept(j)
		for k := lo; k < hi; k++ {
			row := a.rows[k]
			p := r.next[row]
			r.cols[p] = int32(j)
			r.vals[p] = a.vals[k]
			r.next[row] = p + 1
		}
	}
}

// mulTAddInto adds Aᵀv onto acc. Rows with a zero multiplier are
// skipped: their products are exact zeros.
func (r *csr) mulTAddInto(acc, v []float64) {
	for i := 0; i+1 < len(r.ptr); i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		lo, hi := r.ptr[i], r.ptr[i+1]
		cols, vals := r.cols[lo:hi], r.vals[lo:hi]
		for k, c := range cols {
			acc[c] += vi * vals[k]
		}
	}
}

// mulAddInto adds A·w onto dst, skipping zero weights.
func (r *csr) mulAddInto(dst, w []float64) {
	for i := range dst {
		lo, hi := r.ptr[i], r.ptr[i+1]
		cols, vals := r.cols[lo:hi], r.vals[lo:hi]
		acc := dst[i]
		for k, c := range cols {
			if wc := w[c]; wc != 0 {
				acc += vals[k] * wc
			}
		}
		dst[i] = acc
	}
}

// dotRange computes y · col over a column's (rows, vals) entry lists.
func dotRange(y []float64, rows []int32, vals []float64) float64 {
	v := 0.0
	for k, r := range rows {
		v += y[r] * vals[k]
	}
	return v
}
