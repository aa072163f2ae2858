package lp

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
)

// Basis is an opaque snapshot of a simplex basis, captured from an
// optimal Prepared solve and restorable into a later solve of the same
// Prepared instance (or another Prepared compiled from a structurally
// identical problem). A snapshot holds one int per row, which is what
// makes keeping one warm basis per pricing subproblem affordable. A
// frozen one (Freeze) also keeps, once a solve has restored it, the
// basis inverse in sparse form: a basis shared read-only by many solves
// is inverted once, not once per solve.
type Basis struct {
	cols []int
	// memo is non-nil once the basis is frozen.
	memo *inverseMemo
}

// inverseMemo holds a frozen basis's factored inverse, stored by the
// first solve that restores the basis and read by every later one.
type inverseMemo struct {
	inv atomic.Pointer[basisInverse]
}

// basisInverse is a basis inverse B⁻¹ in sparse row form, with the
// basis matrix B it inverts, column by column, so a restore can check
// that its own B is the same bit for bit: a basic artificial's sign
// follows its row's current right-hand side (installArtificialSigns).
type basisInverse struct {
	// B: column i (of basis position i) is bRows/bVals[bPtr[i]:bPtr[i+1]].
	bPtr, bRows []int32
	bVals       []float64
	// B⁻¹: row r is cols/vals[ptr[r]:ptr[r+1]], every entry whose bits
	// are not those of +0.
	ptr, cols []int32
	vals      []float64
}

// Freeze marks b as read-only from now on, shared by any number of
// solves that start from it, concurrently: Prepared.Basis no longer
// refills it, and the first solve that restores it keeps the inverse it
// factors, which a later restore whose basis matrix is the same bit for
// bit copies instead of inverting the basis again.
func (b *Basis) Freeze() {
	if b != nil && b.memo == nil {
		b.memo = &inverseMemo{}
	}
}

// Len returns the number of rows the snapshot covers (0 for an empty
// snapshot that has never been filled).
func (b *Basis) Len() int {
	if b == nil {
		return 0
	}
	return len(b.cols)
}

// Prepared is a simplex instance compiled once from a Problem and kept
// alive across solves. The constraint *structure* (rows, columns, and
// their coefficients) and the objective are frozen at Prepare time;
// between solves the caller may mutate right-hand sides (SetRHS) in
// place. All standard-form arrays, the basis inverse and every
// pivot-loop workspace persist, so a steady-state re-solve allocates
// (almost) nothing.
//
// Warm starts: Basis captures the optimal basis of a solve; SolveFrom
// restores it into a later solve. After a right-hand-side change the
// old basis stays *dual* feasible and a dual simplex pass restores
// primal feasibility first. A snapshot that is
// stale, singular, or infeasible in any way silently falls back to a
// cold two-phase solve — warm starting is an optimisation, never a
// correctness risk.
//
// Unlike newSimplex's one-shot layout, the compiled form never flips row
// signs (the right-hand side may change sign between solves) and gives
// every row an artificial column whose ±1 coefficient is set from the
// current RHS sign at solve time, so the cold start is uniform under any
// RHS. Prepared detaches from the source Problem: later mutations of the
// Problem are not seen.
//
// A Prepared instance is not safe for concurrent use; give each worker
// goroutine its own (bases may be shared across workers as long as the
// rounds are externally synchronised).
type Prepared struct {
	s     *simplex
	pertU []float64 // per-row anti-cycling factor (pertFactors)
	bPert []float64 // perturbed scaled rhs installed at solve start

	sol     Solution // reused result; invalidated by the next solve
	haveOpt bool     // last solve ended Optimal (Basis is meaningful)
}

// Prepare compiles the problem for repeated warm-started solves.
func Prepare(p *Problem) (*Prepared, error) {
	if len(p.constraints) == 0 {
		return nil, ErrNoConstraints
	}
	m := len(p.constraints)
	sign := make([]int, m)
	for i := range sign {
		sign[i] = 1 // rows are never sign-flipped here
	}
	s := compileSimplex(p, sign)
	for i := 0; i < m; i++ {
		s.mat.appendUnitCol(int32(i), 1) // one artificial per row
	}
	s.sizeState(p)

	// Same anti-cycling stream as newSimplex, so tie-breaking behaviour
	// matches the one-shot path.
	pp := &Prepared{s: s, pertU: pertFactors(m), bPert: make([]float64, m)}
	for i := range pp.bPert {
		pp.refreshPert(i)
	}
	return pp, nil
}

// refreshPert recomputes the perturbed RHS of row i from its current
// unperturbed scaled value.
func (pp *Prepared) refreshPert(i int) {
	pp.bPert[i] = perturbed(pp.s.bOrig[i], pp.pertU[i])
}

// SetRHS updates the right-hand side of row i for subsequent solves. The
// row's operator and coefficients are unchanged.
func (pp *Prepared) SetRHS(i int, v float64) {
	if i < 0 || i >= pp.s.m {
		panic(fmt.Sprintf("lp: SetRHS(%d) of %d rows", i, pp.s.m))
	}
	pp.s.bOrig[i] = pp.s.rowScale[i] * v
	pp.refreshPert(i)
}

// SetContext installs the cancellation context polled by subsequent
// solves; nil runs to completion.
func (pp *Prepared) SetContext(ctx context.Context) { pp.s.ctx = ctx }

// Basis snapshots the current basis into dst (allocating one if dst is
// nil or frozen) and returns it. Meaningful after a solve that ended
// Optimal; otherwise nil is returned and dst is untouched.
func (pp *Prepared) Basis(dst *Basis) *Basis {
	if !pp.haveOpt {
		return nil
	}
	if dst == nil || dst.memo != nil {
		dst = &Basis{}
	}
	dst.cols = append(dst.cols[:0], pp.s.basis...)
	return dst
}

// SolveFrom warm-starts from a basis snapshot, falling back to a cold
// solve whenever the snapshot is nil, stale, numerically singular or
// infeasible beyond repair. The returned Solution is owned by the
// Prepared instance and invalidated by the next solve.
func (pp *Prepared) SolveFrom(basis *Basis) (*Solution, error) { return pp.solveWith(basis) }

func (pp *Prepared) solveWith(basis *Basis) (*Solution, error) {
	s := pp.s
	pp.haveOpt = false
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
	}
	s.pivots = 0
	copy(s.b, pp.bPert)
	pp.installArtificialSigns()

	if basis != nil && pp.tryWarm(basis) {
		status := s.iterate(s.cost, s.artStart)
		if status == Cancelled {
			return nil, s.ctx.Err()
		}
		if status == Optimal {
			pp.sol.Status, pp.sol.Iterations = Optimal, s.pivots
			s.extractInto(&pp.sol)
			pp.haveOpt = true
			return &pp.sol, nil
		}
		// A warm start that wanders into Unbounded/IterationLimit is a
		// stale-basis artefact more often than a true verdict: re-verify
		// with a cold solve before reporting anything.
		copy(s.b, pp.bPert)
		pp.installArtificialSigns()
	}

	pp.resetCold()
	if err := s.solveInto(&pp.sol); err != nil {
		return nil, err
	}
	pp.haveOpt = pp.sol.Status == Optimal
	return &pp.sol, nil
}

// installArtificialSigns points every artificial column in the direction
// of its row's current (perturbed) RHS, so the all-artificial cold basis
// is always primal feasible. The row-major mirror is patched in place:
// artificial artStart+i is the highest column of row i, so it is the
// last entry of that row.
func (pp *Prepared) installArtificialSigns() {
	s := pp.s
	for i := 0; i < s.m; i++ {
		sign := 1.0
		if s.b[i] < 0 {
			sign = -1
		}
		_, vals := s.mat.col(s.artStart + i)
		vals[0] = sign
		s.at.vals[s.at.ptr[i+1]-1] = sign
	}
}

// resetCold restores the all-artificial starting basis: B = diag(±1), so
// B⁻¹ is its own diagonal and xb = |b| ≥ 0.
func (pp *Prepared) resetCold() {
	s := pp.s
	m := s.m
	for j := range s.inBase {
		s.inBase[j] = false
	}
	for i := range s.binv {
		s.binv[i] = 0
	}
	for i := 0; i < m; i++ {
		j := s.artStart + i
		s.basis[i] = j
		s.inBase[j] = true
		_, avals := s.mat.col(j)
		sign := avals[0]
		s.binv[i*m+i] = sign
		s.xb[i] = sign * s.b[i]
	}
	s.sinceRefactor = 0
	s.factored = false
}

// warmFeasTol is the primal-feasibility slack a restored basis may carry
// before the warm start is abandoned; matches the solver's self-healing
// ratio-test slack.
const warmFeasTol = 1e-7

// tryWarm restores the snapshot and brings it to primal feasibility,
// reporting whether the primal phase-2 iteration can start from it. The
// restored basis is inverted, or, for a frozen basis whose memo holds
// the inverse of this very basis matrix, its inverse is copied in; the
// first restore of a frozen basis keeps the inverse it computes.
func (pp *Prepared) tryWarm(basis *Basis) bool {
	s := pp.s
	m := s.m
	if len(basis.cols) != m {
		return false
	}
	for j := range s.inBase {
		s.inBase[j] = false
	}
	for i, j := range basis.cols {
		if j < 0 || j >= s.n || s.inBase[j] {
			// Out-of-range or duplicated index: poisoned snapshot.
			for k := 0; k < i; k++ {
				s.inBase[basis.cols[k]] = false
			}
			return false
		}
		s.basis[i] = j
		s.inBase[j] = true
	}
	var memo *basisInverse
	if basis.memo != nil {
		memo = basis.memo.inv.Load()
	}
	switch {
	case memo != nil && s.inverts(memo):
		s.restoreInverse(memo)
	case !s.refactor():
		return false // singular restored basis
	case basis.memo != nil && memo == nil:
		basis.memo.inv.CompareAndSwap(nil, s.factoredInverse())
	}
	// An artificial basic above tolerance means the snapshot's row sign
	// no longer matches, or the point genuinely violates its row; the
	// primal/dual machinery below cannot drive it out, so go cold.
	minXB := 0.0
	for i, j := range s.basis {
		if j >= s.artStart && s.xb[i] > warmFeasTol {
			return false
		}
		if s.xb[i] < minXB {
			minXB = s.xb[i]
		}
	}
	if minXB >= -warmFeasTol {
		return true // still primal feasible: resume the primal simplex
	}
	// RHS drift: the basis is dual feasible but not primal feasible any
	// more. A handful of dual-simplex pivots usually repairs it.
	return s.dualIterate(s.cost, 50+2*m) == Optimal
}

// factoredInverse captures the current basis matrix and the inverse the
// last refactor computed for it.
func (s *simplex) factoredInverse() *basisInverse {
	m := s.m
	bnz, nz := 0, 0
	for _, j := range s.basis {
		bnz += int(s.mat.colPtr[j+1] - s.mat.colPtr[j])
	}
	for _, v := range s.binv {
		if math.Float64bits(v) != 0 {
			nz++
		}
	}
	inv := &basisInverse{
		bPtr: make([]int32, m+1), bRows: make([]int32, 0, bnz), bVals: make([]float64, 0, bnz),
		ptr: make([]int32, m+1), cols: make([]int32, 0, nz), vals: make([]float64, 0, nz),
	}
	for i, j := range s.basis {
		rows, vals := s.mat.col(j)
		inv.bRows = append(inv.bRows, rows...)
		inv.bVals = append(inv.bVals, vals...)
		inv.bPtr[i+1] = int32(len(inv.bRows))
	}
	for r := 0; r < m; r++ {
		for c, v := range s.binv[r*m : (r+1)*m] {
			if math.Float64bits(v) != 0 {
				inv.cols = append(inv.cols, int32(c))
				inv.vals = append(inv.vals, v)
			}
		}
		inv.ptr[r+1] = int32(len(inv.cols))
	}
	return inv
}

// inverts reports whether inv was factored from the current basis
// matrix, entry for entry and bit for bit.
func (s *simplex) inverts(inv *basisInverse) bool {
	for i, j := range s.basis {
		rows, vals := s.mat.col(j)
		lo, hi := inv.bPtr[i], inv.bPtr[i+1]
		if int(hi-lo) != len(rows) {
			return false
		}
		for k, r := range rows {
			if inv.bRows[lo+int32(k)] != r || math.Float64bits(inv.bVals[lo+int32(k)]) != math.Float64bits(vals[k]) {
				return false
			}
		}
	}
	return true
}

// restoreInverse installs inv as the current basis inverse and
// recomputes the basic values, leaving the state a refactor of the same
// basis leaves, bit for bit.
func (s *simplex) restoreInverse(inv *basisInverse) {
	m := s.m
	clear(s.binv)
	for r := 0; r < m; r++ {
		row := s.binv[r*m : (r+1)*m]
		for k := inv.ptr[r]; k < inv.ptr[r+1]; k++ {
			row[inv.cols[k]] = inv.vals[k]
		}
	}
	s.sinceRefactor = 0
	s.factored = true
	s.basicValues()
}

// dualIterate runs dual-simplex pivots from a dual-feasible basis until
// primal feasibility is restored (returning Optimal — the basis is then
// optimal up to the primal clean-up pass), the pivot budget is exhausted
// (IterationLimit), or the basis turns out not to be dual feasible /
// the leaving row admits no entering column (Infeasible). Non-Optimal
// outcomes mean "fall back to a cold solve", not a verdict on the LP.
func (s *simplex) dualIterate(cost []float64, maxPivots int) Status {
	m := s.m
	y := s.scratchY
	dir := s.scratchDir
	const rcTol = 1e-7 // dual-feasibility slack on reduced costs

	for n := 0; n < maxPivots; n++ {
		if s.ctx != nil && n&15 == 0 {
			if s.ctx.Err() != nil {
				return Cancelled
			}
		}
		// Leaving row: most negative basic value.
		leave := -1
		worst := -warmFeasTol
		for i, v := range s.xb {
			if v < worst {
				worst = v
				leave = i
			}
		}
		if leave < 0 {
			return Optimal
		}
		s.dualInto(cost, y)
		lrow := s.binv[leave*m : (leave+1)*m]

		// Entering column: dual ratio test over α_j = (B⁻¹A)_{leave,j} < 0,
		// minimising rc_j / −α_j; ties prefer the larger |α| pivot.
		enter := -1
		bestRatio := math.Inf(1)
		bestAlpha := 0.0
		colPtr, colRows, colVals := s.mat.colPtr, s.mat.rows, s.mat.vals
		for j := 0; j < s.artStart; j++ {
			if s.inBase[j] {
				continue
			}
			lo, hi := colPtr[j], colPtr[j+1]
			rows, vals := colRows[lo:hi], colVals[lo:hi]
			alpha := dotRange(lrow, rows, vals)
			if alpha >= -1e-9 {
				continue
			}
			rc := cost[j] - dotRange(y, rows, vals)
			if rc < -rcTol {
				// The restored basis is not dual feasible after all
				// (objective must have changed too): dual pivoting would
				// be unsound, let the caller go cold.
				return Infeasible
			}
			if rc < 0 {
				rc = 0
			}
			ratio := rc / -alpha
			if ratio < bestRatio-1e-12 || (ratio <= bestRatio+1e-12 && -alpha > -bestAlpha) {
				bestRatio = ratio
				bestAlpha = alpha
				enter = j
			}
		}
		if enter < 0 {
			// No entering column: the row is unsatisfiable at this basis —
			// under a changed RHS that usually signals a genuinely
			// infeasible perturbation; the cold path will decide.
			return Infeasible
		}
		s.directionInto(enter, dir)
		s.pivot(enter, leave, dir)
	}
	return IterationLimit
}
