// Package lp implements the self-contained linear-programming solvers
// used throughout the VLP reproduction, one per LP shape the paper's
// Dantzig–Wolfe decomposition produces:
//
//   - a dense revised simplex over general-form problems: one-shot
//     (Solve, the monolithic D-VLP LP and the package's correctness
//     oracle) and compiled once for warm re-solves under changing
//     right-hand sides (Prepare, the pricing duals), and
//   - a persistent Mehrotra predictor-corrector interior-point method
//     for the restricted master (NewIPMSolver), which grows one column
//     at a time.
//
// The simplex carries the numerical defenses this problem family needs:
//
//   - conversion of general-form problems (≤ / ≥ / = rows, x ≥ 0) to
//     standard equality form with slack and surplus variables,
//   - a two-phase start (artificial variables priced out in phase 1),
//   - row and column equilibration (Geo-I rows mix unit and e^{εd}
//     coefficients),
//   - an anti-cycling right-hand-side perturbation, restored exactly at
//     optimality,
//   - Dantzig pricing and a Harris two-pass ratio test that trades
//     ≤1e-9 of feasibility for healthy pivot magnitudes,
//   - periodic refactorisation of the basis inverse, and
//   - extraction of both the primal solution and the dual prices, which
//     the Dantzig–Wolfe column-generation loop in internal/core requires.
//
// The IPM complements it on instances that defeat any pivoting method —
// the heavily degenerate CG master with near-parallel columns — at the
// cost of returning interior (non-vertex) solutions; see IPMSolver.
//
// The package is deliberately stdlib-only: the paper's pipeline needs
// many small-to-medium LPs (hundreds of rows and columns) rather than one
// enormous one, and a careful dense implementation solves those in
// microseconds to milliseconds.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota + 1 // left-hand side ≤ rhs
	GE               // left-hand side ≥ rhs
	EQ               // left-hand side = rhs
)

// String returns the conventional symbol for the operator.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Term is one coefficient of a constraint row: Coef * x[Var].
type Term struct {
	Var  int
	Coef float64
}

// Constraint is a general-form row: sum of Terms  Op  RHS.
type Constraint struct {
	Terms []Term
	Op    Op
	RHS   float64
}

// Problem is a minimisation LP over variables x[0..n-1] with x ≥ 0:
//
//	minimise  c · x
//	subject to general-form constraints.
//
// Maximisation callers negate their objective.
type Problem struct {
	numVars     int
	objective   []float64
	constraints []Constraint
}

// NewProblem returns an empty minimisation problem with n non-negative
// variables and a zero objective.
func NewProblem(n int) *Problem {
	if n <= 0 {
		panic("lp: NewProblem needs at least one variable")
	}
	return &Problem{
		numVars:   n,
		objective: make([]float64, n),
	}
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.numVars }

// NumConstraints returns the number of constraint rows added so far.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// SetObjective replaces the whole objective vector. The slice is copied.
func (p *Problem) SetObjective(c []float64) {
	if len(c) != p.numVars {
		panic(fmt.Sprintf("lp: objective length %d, want %d", len(c), p.numVars))
	}
	copy(p.objective, c)
}

// SetObjectiveCoeff sets a single objective coefficient.
func (p *Problem) SetObjectiveCoeff(j int, v float64) {
	p.objective[j] = v
}

// AddConstraint appends a general-form row and returns its index.
// Terms are copied; repeated Var entries are summed.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) int {
	row := Constraint{Terms: make([]Term, 0, len(terms)), Op: op, RHS: rhs}
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.numVars {
			panic(fmt.Sprintf("lp: constraint references variable %d of %d", t.Var, p.numVars))
		}
		if t.Coef == 0 {
			continue
		}
		row.Terms = append(row.Terms, t)
	}
	p.constraints = append(p.constraints, row)
	return len(p.constraints) - 1
}

// Status reports the outcome of a solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
	IterationLimit
	// Cancelled is internal to the pivot loop: a solve abandoned via
	// the context of Prepared.SetContext surfaces to callers as the
	// context's error, never as a Solution with this status.
	Cancelled
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a successful or partially successful solve.
type Solution struct {
	Status    Status
	Objective float64
	// X holds the optimal values of the original decision variables.
	X []float64
	// Duals holds one dual price per original constraint row, using the
	// convention of the minimisation problem in equality form: the
	// reduced cost of column j is c_j − y·A_j ≥ 0 at optimality. For a
	// binding ≤ row the dual is ≤ 0, for a binding ≥ row it is ≥ 0.
	Duals []float64
	// Iterations is the total simplex pivot count across both phases.
	Iterations int
}

// simplexTol is the simplex feasibility/optimality tolerance.
const simplexTol = 1e-9

// refactorPeriod is how many pivots pass between recomputations of
// the basis inverse.
const refactorPeriod = 120

// ErrNoConstraints is returned when a problem has no rows: the optimum of
// min c·x with x ≥ 0 is then trivially 0 or −∞, and callers almost
// certainly forgot to add their constraints.
var ErrNoConstraints = errors.New("lp: problem has no constraints")

// Solve minimises the problem and returns the solution. A non-nil error
// is returned only for malformed inputs; Infeasible/Unbounded outcomes
// are reported through Solution.Status. Rows are equilibrated (scaled
// by their largest coefficient magnitude) before the simplex runs.
//
//lint:ignore ctxflow the one-shot oracle of the lp tests and of core.SolveDirect, which runs to completion too; the cancellable LP paths are Prepared and IPMSolver, through SetContext
func Solve(p *Problem) (*Solution, error) {
	if len(p.constraints) == 0 {
		return nil, ErrNoConstraints
	}
	return newSimplex(p).solve()
}

// simplex carries the equality-form problem and the revised-simplex state.
type simplex struct {
	// ctx, when non-nil, is polled every few pivots (Prepared.SetContext).
	ctx context.Context
	// maxIter bounds total pivots: 50 000 + 50·(m+n).
	maxIter int

	m int // rows
	n int // total columns incl. slack/surplus and artificials

	mat  csc       // A by column, pooled CSC storage
	b    []float64 // rhs, ≥ 0
	cost []float64 // phase-2 costs: the original objective, 0 on slack and artificial columns (phase 2 never prices artificials)

	numOrig  int       // original variable count
	artStart int       // first artificial column index
	rowSign  []int     // +1 if original row kept, −1 if negated to make b ≥ 0
	rowScale []float64 // equilibration factor applied to each row
	colScale []float64 // equilibration factor applied to each original column

	basis  []int     // basis[i] = column basic in row i
	inBase []bool    // inBase[j]
	binv   []float64 // m×m basis inverse, row-major
	xb     []float64 // current basic values (= binv·b)
	bOrig  []float64 // unperturbed rhs, restored at optimality

	// Preallocated workspaces, sized once so the pivot loop and the
	// periodic refactorisations allocate nothing. A one-shot solve pays
	// for them once; a Prepared instance reuses them across solves.
	scratchY   []float64 // m: dual vector of the pricing pass
	scratchDir []float64 // m: entering direction B⁻¹A_j

	// Row-major mirror of mat, built once by sizeState; pricing sweeps
	// it for y·A into priceAcc. Prepared re-signs the artificial columns
	// between solves in both (installArtificialSigns).
	at       csr
	priceAcc []float64 // n: the pricing sweep's y·A
	// refactor's buffers, sized on its first call: a warm solve that
	// restores a memoised inverse and ends on its basis never inverts.
	bmatBuf []float64   // m×m: refactor's basis matrix, then its inverse (swapped with binv)
	invBuf  []float64   // m×m: refactor's inversion scratch
	gj      gaussJordan // refactor's index scratch
	p1Cost  []float64   // n: phase-1 cost vector (lazy)

	pivots        int
	sinceRefactor int
	// factored reports that binv is the inverse the last refactor
	// computed for the current basis: set by a successful refactor,
	// cleared by a pivot, a failed refactor and Prepared.resetCold.
	factored bool
}

func newSimplex(p *Problem) *simplex {
	s := compileSimplex(p, rowSigns(p.constraints))
	// Identity start: each ≤ row's +1 slack, and an artificial column
	// for every row without one.
	for i := range s.basis {
		s.basis[i] = -1
	}
	for j := s.numOrig; j < s.artStart; j++ {
		if rows, vals := s.mat.col(j); vals[0] > 0 {
			s.basis[rows[0]] = j
		}
	}
	for i, j := range s.basis {
		if j < 0 {
			s.basis[i] = s.mat.appendUnitCol(int32(i), 1)
		}
	}
	s.sizeState(p)
	for i, j := range s.basis {
		s.inBase[j] = true
		s.binv[i*s.m+i] = 1
	}
	// Anti-cycling perturbation: degenerate problems (Beale's example is
	// one) can cycle under Dantzig pricing, so the right-hand side is
	// nudged by tiny distinct amounts that break every ratio-test tie.
	// Reduced costs never see b, so the optimal basis of the perturbed
	// problem is optimal for the original too; the true b (bOrig) is
	// restored before the solution is read off.
	u := pertFactors(s.m)
	for i := range s.b {
		s.b[i] = perturbed(s.b[i], u[i])
	}
	copy(s.xb, s.b)
	return s
}

// compileSimplex builds the simplex's standard form of p with row i
// multiplied by sign[i] and the original columns equilibrated. Column
// layout: [0..numOrig) originals, then slack/surplus, then the
// artificials the caller appends from artStart on before sizeState.
func compileSimplex(p *Problem, sign []int) *simplex {
	m := len(p.constraints)
	s := &simplex{m: m, numOrig: p.numVars, rowSign: sign, basis: make([]int, m)}
	s.mat, s.b, s.rowScale = standardForm(p, sign, m)
	s.colScale = s.mat.scaleCols(p.numVars)
	s.artStart = s.mat.numCols()
	return s
}

// sizeState allocates the phase-2 costs (in the column-scaled
// variables), the basis bookkeeping and every pivot-loop workspace once
// the artificial columns are in place, and records the unperturbed rhs.
func (s *simplex) sizeState(p *Problem) {
	m := s.m
	s.n = s.mat.numCols()
	s.cost = make([]float64, s.n)
	for j := 0; j < p.numVars; j++ {
		s.cost[j] = p.objective[j] * s.colScale[j]
	}
	s.inBase = make([]bool, s.n)
	s.bOrig = append([]float64(nil), s.b...)
	s.binv = make([]float64, m*m)
	s.xb = make([]float64, m)
	s.scratchY = make([]float64, m)
	s.scratchDir = make([]float64, m)
	s.maxIter = 50000 + 50*(m+s.n)
	s.at.build(&s.mat, m, nil, 0)
	s.priceAcc = make([]float64, s.n)
}

func (s *simplex) solve() (*Solution, error) {
	sol := &Solution{}
	if err := s.solveInto(sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// solveInto runs the two-phase simplex from the current initial state and
// writes the outcome into sol, reusing sol's X and Duals buffers when
// they have capacity. A non-nil error is returned only for cancellation.
func (s *simplex) solveInto(sol *Solution) error {
	// Phase 1: minimise the sum of artificials (cost 1 on artificials).
	if s.artStart < s.n {
		phase1 := s.phase1Cost()
		status := s.iterate(phase1, s.n)
		if status == Cancelled {
			return s.ctx.Err()
		}
		if status == IterationLimit {
			sol.Status, sol.Iterations = IterationLimit, s.pivots
			return nil
		}
		infeas := 0.0
		for i, j := range s.basis {
			if j >= s.artStart {
				infeas += s.xb[i]
			}
		}
		// The anti-cycling perturbation can leave equality systems
		// inconsistent by its own magnitude; only residues clearly above
		// the total injected perturbation mean true infeasibility.
		pertTotal := 0.0
		for i := range s.b {
			pertTotal += s.b[i] - s.bOrig[i]
		}
		if infeas > 1e-7+20*pertTotal {
			sol.Status, sol.Iterations = Infeasible, s.pivots
			return nil
		}
		s.evictArtificials()
	}

	// Phase 2: original costs; artificials may not re-enter.
	status := s.iterate(s.cost, s.artStart)
	if status == Cancelled {
		return s.ctx.Err()
	}

	sol.Status, sol.Iterations = status, s.pivots
	if status != Optimal {
		return nil
	}
	s.extractInto(sol)
	return nil
}

// phase1Cost returns the phase-1 cost vector (1 on artificials), built in
// a lazily allocated reusable buffer.
func (s *simplex) phase1Cost() []float64 {
	if s.p1Cost == nil || len(s.p1Cost) != s.n {
		s.p1Cost = make([]float64, s.n)
		for j := s.artStart; j < s.n; j++ {
			s.p1Cost[j] = 1
		}
	}
	return s.p1Cost
}

// extractInto reads the optimal primal/dual solution off the current
// basis, restoring the unperturbed right-hand side first.
func (s *simplex) extractInto(sol *Solution) {
	// Restore the unperturbed right-hand side: the basis stays optimal
	// (reduced costs are b-independent) and the basic values are
	// recomputed exactly. A basis no pivot changed since its last
	// refactor already has the inverse a re-inversion would compute.
	copy(s.b, s.bOrig)
	if s.factored {
		s.basicValues()
	} else {
		s.refactor()
	}

	// Recover primal values of the original variables, undoing the
	// column equilibration.
	sol.X = growFloats(sol.X, s.numOrig)
	obj := 0.0
	for i, j := range s.basis {
		if j < s.numOrig {
			v := s.xb[i]
			if v < 0 && v > -1e-7 {
				v = 0
			}
			obj += s.cost[j] * v
			sol.X[j] = v * s.colScale[j]
		}
	}
	sol.Objective = obj

	// Duals: y = c_B · B⁻¹ prices the scaled, sign-fixed rows. The solver
	// saw row (scale·a)x ⋛ scale·b, so the original row's dual is
	// y·scale (then undo the sign flip): c_j − Σ yᵢ(scaleᵢ·aᵢⱼ) =
	// c_j − Σ (yᵢ·scaleᵢ)aᵢⱼ.
	y := s.scratchY
	s.dualInto(s.cost, y)
	sol.Duals = growFloats(sol.Duals, s.m)
	for i := 0; i < s.m; i++ {
		sol.Duals[i] = y[i] * float64(s.rowSign[i]) * s.rowScale[i]
	}
}

// growFloats returns a zeroed slice of length n, reusing buf's backing
// array when it has capacity.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// evictArtificials pivots basic artificial variables (all at value 0 after
// a feasible phase 1) out of the basis where possible so that phase-2
// duals are well-defined. Rows whose artificial cannot be replaced are
// redundant; the artificial stays basic at zero, and phase 2 never
// prices it back in once it leaves, which is harmless.
func (s *simplex) evictArtificials() {
	for i := 0; i < s.m; i++ {
		if s.basis[i] < s.artStart {
			continue
		}
		// Find a non-artificial non-basic column with a nonzero pivot
		// element in row i of B⁻¹·A.
		for j := 0; j < s.artStart; j++ {
			if s.inBase[j] {
				continue
			}
			piv := s.binvRowDotCol(i, j)
			if math.Abs(piv) > 1e-7 {
				s.pivot(j, i, nil)
				break
			}
		}
	}
}

// binvRowDotCol returns (B⁻¹ A_j)[i] without forming the full direction.
func (s *simplex) binvRowDotCol(i, j int) float64 {
	row := s.binv[i*s.m : (i+1)*s.m]
	rows, vals := s.mat.col(j)
	return dotRange(row, rows, vals)
}

// iterate runs simplex pivots under the given cost vector until optimal,
// unbounded, or the iteration budget is exhausted. Only columns below
// end may enter: every column in phase 1 (end = n), and no artificial
// after it (end = artStart).
func (s *simplex) iterate(cost []float64, end int) Status {
	y := s.scratchY
	dir := s.scratchDir
	for s.pivots < s.maxIter {
		// Cancellation poll: cheap relative to a pivot's O(m²) work, but
		// still amortised over a few pivots to keep tiny LPs overhead-free.
		if s.ctx != nil && s.pivots&31 == 0 {
			if s.ctx.Err() != nil {
				return Cancelled
			}
		}
		s.dualInto(cost, y)

		// Dantzig pricing: accumulate y·A in one row-major sweep, then
		// scan the candidates. Per column the products arrive in
		// ascending row order, as a per-column gather would add them, so
		// every reduced cost — and hence every pivot choice — is
		// bit-identical to it.
		acc := s.priceAcc
		clear(acc)
		s.at.mulTAddInto(acc, y)
		enter := -1
		best := -simplexTol
		for j := 0; j < end; j++ {
			if s.inBase[j] {
				continue
			}
			if rc := cost[j] - acc[j]; rc < best {
				best = rc
				enter = j
			}
		}
		if enter < 0 {
			return Optimal
		}

		// Direction d = B⁻¹ A_enter.
		s.directionInto(enter, dir)

		// Harris two-pass ratio test: pass 1 computes the largest step
		// that lets every basic variable go no lower than −δ; pass 2
		// picks, among rows whose exact ratio fits within that step, the
		// one with the largest pivot element. Tiny pivots are what turn
		// round-off into a near-singular basis with exploding B⁻¹ — the
		// dominant failure mode on degenerate problems — and the δ-window
		// buys the freedom to avoid them at a per-step infeasibility cost
		// of at most δ.
		leave := s.ratioTestHarris(dir)
		if leave < 0 {
			return Unbounded
		}
		s.pivot(enter, leave, dir)
	}
	return IterationLimit
}

// ratioTestHarris returns the leaving row of the Harris two-pass ratio
// test, or -1 when the direction is unbounded. Basic variables already
// below zero (within the accumulated δ slack) are treated as zero, so
// they force near-zero steps until they leave the basis — a self-healing
// property.
func (s *simplex) ratioTestHarris(dir []float64) int {
	const tol = simplexTol
	const delta = 1e-9

	theta := math.Inf(1)
	for i := 0; i < s.m; i++ {
		if dir[i] <= tol {
			continue
		}
		xbi := s.xb[i]
		if xbi < 0 {
			xbi = 0
		}
		if a := (xbi + delta) / dir[i]; a < theta {
			theta = a
		}
	}
	if math.IsInf(theta, 1) {
		return -1
	}

	leave := -1
	for i := 0; i < s.m; i++ {
		if dir[i] <= tol {
			continue
		}
		xbi := s.xb[i]
		if xbi < 0 {
			xbi = 0
		}
		if xbi/dir[i] > theta {
			continue
		}
		if leave < 0 || dir[i] > dir[leave] {
			leave = i
		}
	}
	return leave
}

// pivot brings column enter into the basis at row leave, updating B⁻¹ and
// the basic values. dir may be the precomputed direction B⁻¹A_enter; pass
// nil to have pivot compute it.
func (s *simplex) pivot(enter, leave int, dir []float64) {
	m := s.m
	if dir == nil {
		dir = s.scratchDir
		s.directionInto(enter, dir)
	}
	pv := dir[leave]

	// Update B⁻¹: row ops turning dir into e_leave.
	lrow := s.binv[leave*m : (leave+1)*m]
	inv := 1 / pv
	for k := range lrow {
		lrow[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		f := dir[i]
		if f == 0 {
			continue
		}
		row := s.binv[i*m : (i+1)*m]
		for k := range row {
			row[k] -= f * lrow[k]
		}
	}

	// Update basic values the same way.
	s.xb[leave] *= inv
	xl := s.xb[leave]
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		if f := dir[i]; f != 0 {
			s.xb[i] -= f * xl
		}
	}

	s.inBase[s.basis[leave]] = false
	s.basis[leave] = enter
	s.inBase[enter] = true
	s.pivots++
	s.sinceRefactor++
	s.factored = false
	if s.sinceRefactor >= refactorPeriod {
		s.refactor()
	}
}

// refactor rebuilds B⁻¹ and the basic values from scratch for numerical
// hygiene, reusing preallocated buffers. It reports whether the basis
// matrix inverted cleanly; on a (numerically) singular basis the
// incrementally-updated inverse is kept, and the basic values are
// refreshed either way so a caller-side change of b takes effect.
func (s *simplex) refactor() bool {
	s.sinceRefactor = 0
	if s.bmatBuf == nil {
		m := s.m
		s.bmatBuf, s.invBuf, s.gj = make([]float64, m*m), make([]float64, m*m), newGaussJordan(m)
	}
	bmat := s.bmatBuf
	clear(bmat)
	s.gj.reset()
	for i, j := range s.basis {
		rows, vals := s.mat.col(j)
		for k, r := range rows {
			s.gj.place(bmat, int(r), i, vals[k])
		}
	}
	ok := s.gj.invert(bmat, s.invBuf)
	if ok {
		s.binv, s.bmatBuf = s.bmatBuf, s.binv
	}
	s.factored = ok
	s.basicValues()
	return ok
}

// basicValues recomputes xb = B⁻¹·b from the current inverse. Four
// rows run at once, each summing its products in ascending column order
// as a row-at-a-time loop does, so the values keep their bits while
// four independent addition chains overlap.
func (s *simplex) basicValues() {
	m := s.m
	b := s.b[:m]
	i := 0
	for ; i+4 <= m; i += 4 {
		r0 := s.binv[i*m : (i+1)*m]
		r1 := s.binv[(i+1)*m : (i+2)*m]
		r2 := s.binv[(i+2)*m : (i+3)*m]
		r3 := s.binv[(i+3)*m : (i+4)*m]
		var v0, v1, v2, v3 float64
		for k, bk := range b {
			v0 += r0[k] * bk
			v1 += r1[k] * bk
			v2 += r2[k] * bk
			v3 += r3[k] * bk
		}
		s.xb[i], s.xb[i+1], s.xb[i+2], s.xb[i+3] = v0, v1, v2, v3
	}
	for ; i < m; i++ {
		row := s.binv[i*m : (i+1)*m]
		v := 0.0
		for k, bk := range b {
			v += row[k] * bk
		}
		s.xb[i] = v
	}
}

// dualInto fills y = c_B · B⁻¹.
func (s *simplex) dualInto(cost []float64, y []float64) {
	m := s.m
	for k := 0; k < m; k++ {
		y[k] = 0
	}
	for i, j := range s.basis {
		cb := cost[j]
		if cb == 0 {
			continue
		}
		row := s.binv[i*m : (i+1)*m]
		for k := 0; k < m; k++ {
			y[k] += cb * row[k]
		}
	}
}

// directionInto fills d = B⁻¹ A_j, walking binv row-major so the column
// gather stays cache-friendly.
func (s *simplex) directionInto(j int, d []float64) {
	m := s.m
	rows, vals := s.mat.col(j)
	for i := 0; i < m; i++ {
		row := s.binv[i*m : (i+1)*m]
		d[i] = dotRange(row, rows, vals)
	}
}
