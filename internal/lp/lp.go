// Package lp implements the self-contained linear-programming solvers
// used throughout the VLP reproduction: a dense revised simplex (Solve)
// and a Mehrotra predictor-corrector interior-point method (SolveIPM).
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
//   - Dantzig pricing with objective-stall detection that switches to
//     Bland's rule, and a Harris two-pass ratio test that trades ≤1e-9
//     of feasibility for healthy pivot magnitudes,
//   - periodic refactorisation of the basis inverse, and
//   - extraction of both the primal solution and the dual prices, which
//     the Dantzig–Wolfe column-generation loop in internal/core requires.
//
// The IPM complements it on instances that defeat any pivoting method —
// the heavily degenerate CG master with near-parallel columns — at the
// cost of returning interior (non-vertex) solutions; see SolveIPM.
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

// AddColumn appends a new non-negative decision variable with objective
// coefficient cost and one coefficient per existing constraint row, and
// returns its index. In entries, Term.Var is interpreted as a *row*
// index (the value returned by AddConstraint), not a variable index.
// This is the growth API of column generation: the restricted master
// gains one column per priced-out extreme point without being rebuilt.
func (p *Problem) AddColumn(cost float64, entries []Term) int {
	j := p.numVars
	p.numVars++
	p.objective = append(p.objective, cost)
	for _, e := range entries {
		if e.Var < 0 || e.Var >= len(p.constraints) {
			panic(fmt.Sprintf("lp: column references row %d of %d", e.Var, len(p.constraints)))
		}
		if e.Coef == 0 {
			continue
		}
		row := &p.constraints[e.Var]
		row.Terms = append(row.Terms, Term{Var: j, Coef: e.Coef})
	}
	return j
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
	// Options.Ctx surfaces to callers as the context's error, never as a
	// Solution with this status.
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

// Options tune the solver. The zero value selects sensible defaults.
type Options struct {
	// MaxIter bounds total pivots (default 50 000 + 50·(m+n)).
	MaxIter int
	// Ctx, when non-nil, lets callers abandon a solve early: Solve and
	// SolveIPM poll it (every few simplex pivots, every IPM Newton
	// iteration) and return Ctx.Err() as soon as it is done. Nil means
	// run to completion.
	Ctx context.Context
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 50000 + 50*(m+n)
	}
	return o
}

// simplexTol is the simplex feasibility/optimality tolerance.
const simplexTol = 1e-9

// refactorPeriod is how many pivots pass between recomputations of
// the basis inverse; Solve's drift retry refactors far more often.
const refactorPeriod = 120

// ErrNoConstraints is returned when a problem has no rows: the optimum of
// min c·x with x ≥ 0 is then trivially 0 or −∞, and callers almost
// certainly forgot to add their constraints.
var ErrNoConstraints = errors.New("lp: problem has no constraints")

// Solve minimises the problem and returns the solution. A non-nil error
// is returned only for malformed inputs; Infeasible/Unbounded outcomes
// are reported through Solution.Status.
//
// Rows are equilibrated (scaled by their largest coefficient magnitude)
// before the simplex runs, and an optimal solution is verified against
// the original rows; on the rare numerically-drifted solve, one retry
// with aggressive refactorisation runs automatically.
func Solve(p *Problem, opts Options) (*Solution, error) {
	if len(p.constraints) == 0 {
		return nil, ErrNoConstraints
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	sol, err := newSimplex(p, opts).solve()
	if err != nil || sol.Status != Optimal {
		return sol, err
	}
	if p.Violation(sol.X) <= 1e-6 {
		return sol, nil
	}
	retry := newSimplex(p, opts)
	retry.refactorEvery = 8
	sol2, err := retry.solve()
	if err != nil {
		return nil, err
	}
	if sol2.Status == Optimal && p.Violation(sol2.X) <= p.Violation(sol.X) {
		return sol2, nil
	}
	return sol, nil
}

// simplex carries the equality-form problem and the revised-simplex state.
type simplex struct {
	opt Options
	// refactorEvery is the pivot period of the basis-inverse rebuild.
	refactorEvery int

	m int // rows
	n int // total columns incl. slack/surplus and artificials

	mat  csc       // A by column, pooled CSC storage
	b    []float64 // rhs, ≥ 0
	cost []float64 // phase-2 costs (original objective; 0 for slack; +big for artificial — never negative reduced cost in phase 2 because banned)

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
	scratchAcc []float64 // n: y·A accumulator of the pricing pass

	// CSR mirror of mat, rebuilt at the top of each iterate call (the
	// matrix is static within a pivot loop but Prepared re-signs
	// artificial columns between solves). Pricing sweeps it row-major:
	// one pass over the nonzeros with streaming writes replaces n short
	// column gathers whose per-column loop overhead dominated the scan.
	rowPtr  []int32
	rowCols []int32
	rowVals []float64
	rowNext []int32   // m: fill cursors for the CSR build
	bmatBuf []float64 // m×m: refactor's basis matrix
	invBuf  []float64 // m×m: refactor's inversion target (swapped with binv)
	p1Cost  []float64 // n: phase-1 cost vector (lazy)
	banned  []bool    // n: phase-2 banned mask (lazy)

	pivots        int
	sinceRefactor int
}

func newSimplex(p *Problem, opts Options) *simplex {
	m := len(p.constraints)
	s := &simplex{
		m:       m,
		numOrig: p.numVars,
		b:       make([]float64, m),
		rowSign: make([]int, m),
	}

	// Count extra columns: one slack or surplus per inequality row, one
	// artificial per row that lacks an identity slack after sign fixing.
	type rowInfo struct {
		op   Op
		sign int
	}
	infos := make([]rowInfo, m)
	extra := 0
	for i, c := range p.constraints {
		sign := 1
		op := c.Op
		if c.RHS < 0 {
			sign = -1
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		infos[i] = rowInfo{op: op, sign: sign}
		s.rowSign[i] = sign
		if op != EQ {
			extra++ // slack or surplus
		}
	}

	// Row equilibration: scale each row so its largest coefficient
	// magnitude is 1, which keeps the basis well-conditioned when rows
	// mix unit and exponential-scale coefficients.
	s.rowScale = make([]float64, m)
	for i, c := range p.constraints {
		// Duplicate Var entries are merged below; for scaling purposes
		// the max unmerged magnitude is a fine (and cheaper) proxy.
		maxAbs := 0.0
		for _, t := range c.Terms {
			if a := math.Abs(t.Coef); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			maxAbs = 1
		}
		s.rowScale[i] = 1 / maxAbs
	}

	// Column layout: [0..numOrig) originals, then slack/surplus, then
	// artificials. The builder merges duplicate Var entries within a row
	// and reserves pool headroom for the unit columns appended below.
	rowFactor := make([]float64, m)
	for i, c := range p.constraints {
		rowFactor[i] = float64(infos[i].sign) * s.rowScale[i]
		s.b[i] = rowFactor[i] * c.RHS
	}
	s.mat = newCSCBuilder(p.constraints, p.numVars, extra+m, rowFactor)

	// Column equilibration on the original variables: x_j = scale_j·x'_j
	// turns columns with uniformly tiny coefficients into unit-scale
	// ones, which keeps pivot elements healthy. Slack and artificial
	// columns are already unit-scale.
	s.colScale = make([]float64, p.numVars)
	for j := range s.colScale {
		maxAbs := s.mat.colMaxAbs(j)
		if maxAbs == 0 {
			s.colScale[j] = 1
			continue
		}
		s.colScale[j] = 1 / maxAbs
		s.mat.scaleCol(j, s.colScale[j])
	}

	// Slack / surplus columns; remember which rows get an identity start.
	slackRow := make([]int, 0, extra) // row of each slack usable as initial basis
	basisOf := make([]int, m)
	for i := range basisOf {
		basisOf[i] = -1
	}
	for i, info := range infos {
		switch info.op {
		case LE:
			j := s.mat.appendUnitCol(int32(i), 1)
			basisOf[i] = j
			slackRow = append(slackRow, i)
		case GE:
			s.mat.appendUnitCol(int32(i), -1)
		}
	}
	_ = slackRow

	// Artificial columns for rows without an identity start.
	s.artStart = s.mat.numCols()
	for i := 0; i < m; i++ {
		if basisOf[i] >= 0 {
			continue
		}
		basisOf[i] = s.mat.appendUnitCol(int32(i), 1)
	}
	s.n = s.mat.numCols()

	// Phase-2 cost vector, in the column-scaled variables.
	s.cost = make([]float64, s.n)
	for j := 0; j < p.numVars; j++ {
		s.cost[j] = p.objective[j] * s.colScale[j]
	}

	// Initial basis.
	s.basis = make([]int, m)
	s.inBase = make([]bool, s.n)
	for i := 0; i < m; i++ {
		s.basis[i] = basisOf[i]
		s.inBase[basisOf[i]] = true
	}
	// Anti-cycling perturbation: highly degenerate problems (the CG
	// master is one) can cycle even under tolerance-based Bland's rule,
	// so the right-hand side is nudged by tiny distinct amounts that
	// break every ratio-test tie. Reduced costs never see b, so the
	// optimal basis of the perturbed problem is optimal for the original
	// too; the true b is restored before the solution is read off.
	s.bOrig = append([]float64(nil), s.b...)
	rngState := uint64(0x9e3779b97f4a7c15)
	for i := range s.b {
		rngState ^= rngState << 13
		rngState ^= rngState >> 7
		rngState ^= rngState << 17
		u := 0.5 + float64(rngState%1024)/1024.0 // (0.5, 1.5)
		s.b[i] += 1e-8 * u * (1 + math.Abs(s.b[i]))
	}

	s.binv = identity(m)
	s.xb = make([]float64, m)
	copy(s.xb, s.b)
	s.allocScratch()

	s.opt = opts.withDefaults(m, s.n)
	s.refactorEvery = refactorPeriod
	return s
}

// allocScratch sizes the per-solve workspaces once.
func (s *simplex) allocScratch() {
	m := s.m
	s.scratchY = make([]float64, m)
	s.scratchDir = make([]float64, m)
	s.bmatBuf = make([]float64, m*m)
	s.invBuf = make([]float64, m*m)
}

func identity(m int) []float64 {
	id := make([]float64, m*m)
	for i := 0; i < m; i++ {
		id[i*m+i] = 1
	}
	return id
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
		status := s.iterate(phase1, nil)
		if status == Cancelled {
			return s.opt.Ctx.Err()
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

	// Phase 2: original costs, artificials banned from entering.
	status := s.iterate(s.cost, s.bannedArtificials())
	if status == Cancelled {
		return s.opt.Ctx.Err()
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

// bannedArtificials returns the phase-2 banned mask, built in a lazily
// allocated reusable buffer.
func (s *simplex) bannedArtificials() []bool {
	if s.banned == nil || len(s.banned) != s.n {
		s.banned = make([]bool, s.n)
		for j := s.artStart; j < s.n; j++ {
			s.banned[j] = true
		}
	}
	return s.banned
}

// extractInto reads the optimal primal/dual solution off the current
// basis, restoring the unperturbed right-hand side first.
func (s *simplex) extractInto(sol *Solution) {
	// Restore the unperturbed right-hand side: the basis stays optimal
	// (reduced costs are b-independent) and the basic values are
	// recomputed exactly.
	copy(s.b, s.bOrig)
	s.refactor()

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
// redundant; the artificial stays basic at zero and is banned from
// re-entering, which is harmless.
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
// unbounded, or the iteration budget is exhausted. banned columns are
// never chosen to enter.
func (s *simplex) iterate(cost []float64, banned []bool) Status {
	const tol = simplexTol
	degenerate := 0
	useBland := false
	y := s.scratchY
	dir := s.scratchDir
	s.buildCSR()

	// Stall detection: perturbation can turn exactly-degenerate pivots
	// into micro-steps that never register as degenerate yet make no
	// real progress, letting Dantzig pricing cycle numerically. Lack of
	// objective improvement over ~2m pivots switches to Bland's rule.
	bestObj := math.Inf(1)
	sinceImprove := 0

	for s.pivots < s.opt.MaxIter {
		// Cancellation poll: cheap relative to a pivot's O(m²) work, but
		// still amortised over a few pivots to keep tiny LPs overhead-free.
		if s.opt.Ctx != nil && s.pivots&31 == 0 {
			if s.opt.Ctx.Err() != nil {
				return Cancelled
			}
		}
		obj := 0.0
		for i, j := range s.basis {
			if c := cost[j]; c != 0 {
				obj += c * s.xb[i]
			}
		}
		if math.IsInf(bestObj, 1) || obj < bestObj-1e-10*(1+math.Abs(bestObj)) {
			bestObj = obj
			sinceImprove = 0
		} else {
			sinceImprove++
			if sinceImprove > 2*s.m+50 {
				useBland = true
			}
		}

		s.dualInto(cost, y)

		// Pricing: accumulate y·A in one row-major sweep, then scan the
		// candidates. Per column the products arrive in the same
		// ascending-row order the old per-column gather used, so every
		// reduced cost — and hence every pivot choice — is bit-identical.
		s.accumPriceInto(y)
		acc := s.scratchAcc
		enter := -1
		best := -tol
		if !useBland && banned == nil {
			// Hot path: the Dantzig scan with the per-column ban and
			// Bland branches hoisted out. Same candidates in the same
			// order, so the pivot choice is identical.
			for j := 0; j < s.n; j++ {
				if s.inBase[j] {
					continue
				}
				if rc := cost[j] - acc[j]; rc < best {
					best = rc
					enter = j
				}
			}
		} else {
			for j := 0; j < s.n; j++ {
				if s.inBase[j] || (banned != nil && banned[j]) {
					continue
				}
				rc := cost[j] - acc[j]
				if useBland {
					if rc < -tol {
						enter = j
						break
					}
				} else if rc < best {
					best = rc
					enter = j
				}
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
		// one with the largest pivot element (lowest basis index under
		// Bland's rule). Tiny pivots are what turn round-off into a
		// near-singular basis with exploding B⁻¹ — the dominant failure
		// mode on degenerate masters — and the δ-window buys the freedom
		// to avoid them at a per-step infeasibility cost of at most δ.
		leave := s.ratioTestHarris(dir, useBland)
		if leave < 0 {
			return Unbounded
		}
		minRatio := s.xb[leave] / dir[leave]
		if minRatio < 0 {
			minRatio = 0
		}
		if minRatio < tol {
			degenerate++
			if degenerate > 2*s.m+20 {
				// Switch to Bland's rule permanently for this phase:
				// resetting on occasional progress lets cycles that mix
				// degenerate and near-degenerate pivots run forever.
				useBland = true
			}
		} else {
			degenerate = 0
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
func (s *simplex) ratioTestHarris(dir []float64, useBland bool) int {
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
		if leave < 0 {
			leave = i
			continue
		}
		if useBland {
			if s.basis[i] < s.basis[leave] {
				leave = i
			}
		} else if dir[i] > dir[leave] {
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
	if s.sinceRefactor >= s.refactorEvery {
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
	m := s.m
	bmat := s.bmatBuf
	for i := range bmat {
		bmat[i] = 0
	}
	for i, j := range s.basis {
		rows, vals := s.mat.col(j)
		for k, r := range rows {
			bmat[int(r)*m+i] = vals[k]
		}
	}
	ok := invertDenseInto(bmat, s.invBuf, m)
	if ok {
		s.binv, s.invBuf = s.invBuf, s.binv
	}
	for i := 0; i < m; i++ {
		row := s.binv[i*m : (i+1)*m]
		v := 0.0
		for k := 0; k < m; k++ {
			v += row[k] * s.b[k]
		}
		s.xb[i] = v
	}
	return ok
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

// buildCSR refreshes the row-major mirror of mat used by the pricing
// sweep. O(nnz), called once per iterate — negligible next to the pivot
// loop — and necessary there because Prepared flips artificial-column
// signs between solves.
func (s *simplex) buildCSR() {
	m, nnz := s.m, s.mat.nnz()
	if cap(s.rowPtr) < m+1 {
		s.rowPtr = make([]int32, m+1)
		s.rowNext = make([]int32, m)
	}
	s.rowPtr, s.rowNext = s.rowPtr[:m+1], s.rowNext[:m]
	if cap(s.rowCols) < nnz {
		s.rowCols = make([]int32, nnz, nnz+nnz/2)
		s.rowVals = make([]float64, nnz, nnz+nnz/2)
	}
	s.rowCols, s.rowVals = s.rowCols[:nnz], s.rowVals[:nnz]
	if cap(s.scratchAcc) < s.n {
		s.scratchAcc = make([]float64, s.n, s.n+s.n/2)
	}
	s.scratchAcc = s.scratchAcc[:s.n]

	cnt := s.rowPtr
	for i := range cnt {
		cnt[i] = 0
	}
	for _, r := range s.mat.rows {
		cnt[r+1]++
	}
	for i := 0; i < m; i++ {
		cnt[i+1] += cnt[i]
	}
	copy(s.rowNext, cnt[:m])
	// Columns are visited ascending, so each row's entries land in
	// ascending column order and the pricing writes stream.
	for j := 0; j < s.n; j++ {
		lo, hi := s.mat.colPtr[j], s.mat.colPtr[j+1]
		for k := lo; k < hi; k++ {
			r := s.mat.rows[k]
			p := s.rowNext[r]
			s.rowCols[p] = int32(j)
			s.rowVals[p] = s.mat.vals[k]
			s.rowNext[r] = p + 1
		}
	}
}

// accumPriceInto fills scratchAcc[j] = y · A_j by sweeping the CSR
// mirror row-major. Rows with a zero multiplier are skipped: their
// products are exact zeros, so the accumulated values match the
// per-column gather bit for bit.
func (s *simplex) accumPriceInto(y []float64) {
	acc := s.scratchAcc
	for j := range acc {
		acc[j] = 0
	}
	rowPtr, rowCols, rowVals := s.rowPtr, s.rowCols, s.rowVals
	for i := 0; i < s.m; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols, vals := rowCols[lo:hi], rowVals[lo:hi]
		for k, c := range cols {
			acc[c] += yi * vals[k]
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

// invertDenseInto inverts the m×m row-major matrix in work into inv,
// destroying work. Both buffers are caller-provided so the periodic
// refactorisations allocate nothing.
func invertDenseInto(work, inv []float64, m int) bool {
	for i := range inv {
		inv[i] = 0
	}
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	for col := 0; col < m; col++ {
		// Partial pivot.
		p := col
		best := math.Abs(work[col*m+col])
		for r := col + 1; r < m; r++ {
			if v := math.Abs(work[r*m+col]); v > best {
				best = v
				p = r
			}
		}
		if best < 1e-12 {
			return false
		}
		if p != col {
			swapRows(work, m, p, col)
			swapRows(inv, m, p, col)
		}
		pivInv := 1 / work[col*m+col]
		for k := 0; k < m; k++ {
			work[col*m+k] *= pivInv
			inv[col*m+k] *= pivInv
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := work[r*m+col]
			if f == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				work[r*m+k] -= f * work[col*m+k]
				inv[r*m+k] -= f * inv[col*m+k]
			}
		}
	}
	return true
}

func swapRows(a []float64, m, i, j int) {
	ri := a[i*m : (i+1)*m]
	rj := a[j*m : (j+1)*m]
	for k := 0; k < m; k++ {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Violation reports the largest constraint violation of x under the
// problem's rows, useful for solution verification in tests.
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

// Objective evaluates c·x for this problem's objective.
func (p *Problem) Objective(x []float64) float64 {
	v := 0.0
	for j, c := range p.objective {
		v += c * x[j]
	}
	return v
}
