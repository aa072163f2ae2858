package lp

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/faultinject"
)

// IPMSolver is a persistent interior-point instance for re-solve
// sequences that mutate one problem in place — the restricted master of
// a column-generation loop. It keeps the compiled matrix, the
// Newton-loop workspace and the previous optimal iterate alive across
// solves: AddColumn appends a priced-out column without rebuilding
// anything, SetObjectiveCoeff retunes costs (stabilization penalties),
// and each Solve warm-starts from the previous iterate, falling back to
// the usual cold start automatically whenever the warm point is stale or
// fails to converge.
//
// An instance hands its state on in two parts, for a resumed
// column-generation run's master. Compiled copies the compiled form
// (the matrix, its block split, dense panel and remainder mirror), which
// FrozenIPM.Clone shares read-only with any number of new instances
// under new costs; Iterate copies the final point, which StartFrom
// installs as a new instance's warm start, cloned or compiled afresh.
// Release ends an instance, handing a clone's workspace back to its
// FrozenIPM for the next clone.
//
// The instance accepts the master's shape only: every row EQ, taken as
// given (no sign flip, no equilibration), so the variables are exactly
// the matrix columns and an appended column is stored as the caller
// passes it. Infeasible or unbounded problems surface as
// IterationLimit: the method is meant for instances known to be
// feasible and bounded, as the stabilized master always is. Not safe
// for concurrent use.
type IPMSolver struct {
	ip *ipm
	ws *ipmWorkspace
	// from is the FrozenIPM the instance was cloned from (nil when
	// compiled), which Release hands the workspace back to.
	from *FrozenIPM

	// Previous optimal iterate; warm-start seed for the next Solve.
	warmX, warmY, warmS []float64
	haveWarm            bool
}

// NewIPMSolver compiles the problem. Every constraint row must be EQ; a
// problem with inequality rows is rejected, since its slack columns
// would have to sit after the originals, where AddColumn grows the
// column array.
func NewIPMSolver(p *Problem) (*IPMSolver, error) {
	if len(p.constraints) == 0 {
		return nil, ErrNoConstraints
	}
	for i, c := range p.constraints {
		if c.Op != EQ {
			return nil, fmt.Errorf("lp: IPMSolver requires equality rows, row %d is %v", i, c.Op)
		}
	}
	return &IPMSolver{ip: newIPM(p), ws: &ipmWorkspace{}}, nil
}

// NumVars returns the current column count.
func (sv *IPMSolver) NumVars() int { return sv.ip.n }

// SetObjectiveCoeff updates the objective coefficient of column j.
func (sv *IPMSolver) SetObjectiveCoeff(j int, v float64) {
	sv.ip.c[j] = v
}

// SetContext installs the cancellation context polled by subsequent
// solves; nil runs to completion.
func (sv *IPMSolver) SetContext(ctx context.Context) { sv.ip.ctx = ctx }

// AddColumn appends a new non-negative variable with objective
// coefficient cost; in entries, Term.Var is a row index. The entries
// are stored as given, so their rows must be strictly ascending (the
// order formNormal exploits) and in range; AddColumn panics otherwise.
// The warm iterate is extended so the next Solve still warm-starts.
func (sv *IPMSolver) AddColumn(cost float64, entries []Term) int {
	ip := sv.ip
	for k, e := range entries {
		if e.Var < 0 || e.Var >= ip.m {
			panic(fmt.Sprintf("lp: column references row %d of %d", e.Var, ip.m))
		}
		if k > 0 && e.Var <= entries[k-1].Var {
			panic(fmt.Sprintf("lp: column rows not strictly ascending: row %d after row %d", e.Var, entries[k-1].Var))
		}
	}
	j := ip.mat.appendCol(entries)
	ip.c = append(ip.c, cost)
	ip.n++

	if sv.haveWarm {
		// Seed the new coordinate: a small primal mass keeps the point
		// interior, and the dual slack is the column's (clamped) reduced
		// cost under the previous duals, which is exactly where a
		// post-pricing warm start wants it.
		floor := sv.warmFloor()
		sv.warmX = append(sv.warmX, floor)
		rows, vals := ip.mat.col(j)
		slack := cost - dotRange(sv.warmY, rows, vals)
		if slack < floor {
			slack = floor
		}
		sv.warmS = append(sv.warmS, slack)
	}
	return j
}

// Reserve makes room for cols more columns holding nnz entries in all,
// in one exact allocation per array, so the AddColumn calls that append
// them grow nothing: a resumed column-generation run appends its whole
// pool at once.
func (sv *IPMSolver) Reserve(cols, nnz int) {
	ip := sv.ip
	ip.mat.colPtr = reserve(ip.mat.colPtr, cols)
	ip.mat.rows = reserve(ip.mat.rows, nnz)
	ip.mat.vals = reserve(ip.mat.vals, nnz)
	ip.c = reserve(ip.c, cols)
}

// reserve returns s with capacity for n more elements, reallocated to
// exactly that size when it has less.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	t := make([]T, len(s), len(s)+n)
	copy(t, s)
	return t
}

// warmFloor is the positive floor applied to warm-start coordinates so
// the previous (near-boundary) optimum re-enters the interior.
func (sv *IPMSolver) warmFloor() float64 {
	mu := 0.0
	for j := range sv.warmX {
		mu += sv.warmX[j] * sv.warmS[j]
	}
	if len(sv.warmX) > 0 {
		mu /= float64(len(sv.warmX))
	}
	f := math.Sqrt(mu)
	if f < 1e-3 {
		f = 1e-3
	}
	if f > 1 {
		f = 1
	}
	return f
}

// FrozenIPM is a read-only copy of an IPMSolver's compiled form
// (Compiled): its constraint matrix, right-hand side, block split, run
// classification, dense panel and remainder mirror, everything a Solve
// derives from the matrix alone. Costs, the iterate and every
// accumulator and scratch vector are not part of it: those live in
// each clone's own workspace. It is immutable but for one spare Newton
// workspace, which a released clone leaves for the next clone
// (Release), so one FrozenIPM may seed any number of solvers,
// concurrently.
type FrozenIPM struct {
	m, n  int
	b     []float64
	mat   csc
	form  ipmForm // rem without its fill cursors
	spare *spareWorkspace
}

// spareWorkspace is a FrozenIPM's spare workspace slot. A clone's
// workspace, its normal-equations blocks and scaled panel above all, is
// as large as the master it serves, and every buffer in it is written
// before it is read, so a solve's bits do not depend on whose workspace
// it gets. One slot, so at most one idle workspace is kept per
// FrozenIPM.
type spareWorkspace struct {
	ws atomic.Pointer[ipmWorkspace]
}

// Compiled returns a copy of the instance's compiled form, first
// brought up to date with every appended column, in arrays of exactly
// their length.
func (sv *IPMSolver) Compiled() *FrozenIPM {
	ip, ws := sv.ip, sv.ws
	ip.compile(ws)
	f := ws.form
	f.runs, f.members, f.panel = exact(f.runs), exact(f.members), exact(f.panel)
	f.rem = csr{ptr: exact(f.rem.ptr), cols: exact(f.rem.cols), vals: exact(f.rem.vals)}
	return &FrozenIPM{
		m: ip.m, n: ip.n, b: exact(ip.b),
		mat:   csc{colPtr: exact(ip.mat.colPtr), rows: exact(ip.mat.rows), vals: exact(ip.mat.vals)},
		form:  f,
		spare: &spareWorkspace{},
	}
}

// exact returns a copy of s with no spare capacity, so an append to it
// copies again.
func exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// Release ends the instance. A clone hands its Newton workspace back to
// the FrozenIPM it was cloned from, for the next clone. The instance
// must not be used afterwards.
func (sv *IPMSolver) Release() {
	if sv.from != nil {
		// The compiled form is the FrozenIPM's, or this clone's own after
		// it appended columns, and the next clone takes the FrozenIPM's:
		// drop it, so the idle workspace holds no copy of the matrix.
		ws := sv.ws
		ws.form, ws.shared = ipmForm{}, false
		sv.from.spare.ws.Store(ws)
	}
	sv.ip, sv.ws, sv.from = nil, nil, nil
}

// Clone returns a new instance over f's compiled form with objective c,
// one coefficient per column, which the instance takes over. It has a
// workspace of its own (f's spare, if a released clone left one) and no
// iterate (see StartFrom), and it solves with the bits of an instance
// compiled from f's problem and columns afresh. f's arrays stay
// read-only: AddColumn copies the matrix before it appends, and the
// next Solve rebuilds the compiled form into buffers of the new
// instance's own.
func (f *FrozenIPM) Clone(c []float64) *IPMSolver {
	if len(c) != f.n {
		panic(fmt.Sprintf("lp: Clone with %d costs for %d columns", len(c), f.n))
	}
	ws := f.spare.ws.Swap(nil)
	if ws == nil {
		ws = &ipmWorkspace{}
	}
	ws.form, ws.shared = f.form, true
	return &IPMSolver{ip: &ipm{m: f.m, n: f.n, mat: f.mat, b: f.b, c: c}, ws: ws, from: f}
}

// Iterate is an opaque interior point (x, y, s) of an IPMSolver
// instance: the final iterate of a solve, extended by any columns
// appended after it. It is immutable once handed out, so one Iterate
// may seed any number of solvers, concurrently.
type Iterate struct {
	x, y, s []float64
}

// Iterate returns a copy of the point the next Solve would warm-start
// from, or nil when there is none (no solve yet, or the last one did not
// end Optimal).
func (sv *IPMSolver) Iterate() *Iterate {
	if !sv.haveWarm {
		return nil
	}
	return &Iterate{
		x: append([]float64(nil), sv.warmX...),
		y: append([]float64(nil), sv.warmY...),
		s: append([]float64(nil), sv.warmS...),
	}
}

// Columns returns the number of columns the iterate spans (0 for nil).
func (it *Iterate) Columns() int {
	if it == nil {
		return 0
	}
	return len(it.x)
}

// Active reports whether column j is in the iterate's active set,
// x_j ≥ s_j. Near an optimum the product x_j·s_j is small for every
// column, so a column the optimum uses has x_j above s_j and one it
// leaves at zero has x_j below; a column appended after the last solve
// sits at x_j = s_j, the warm floor, and counts as active.
func (it *Iterate) Active(j int) bool { return it.x[j] >= it.s[j] }

// X returns the iterate's primal value x_j of column j.
func (it *Iterate) X(j int) float64 { return it.x[j] }

// StartFrom makes the next Solve warm-start from a copy of it, as if it
// were this instance's own previous iterate: the point is floored back
// into the interior, and a run that does not end Optimal is retried
// cold. cols names the iterate's column behind each of the instance's
// columns, in order, so an instance compiled over a subset of the
// columns the iterate was taken over starts from their coordinates. it
// is only read. An iterate whose rows do not match the instance's, or
// cols that do not name one of its columns per instance column, are
// ignored, as is a nil iterate: the next Solve then starts as it would
// have.
func (sv *IPMSolver) StartFrom(it *Iterate, cols []int) {
	n := len(cols)
	if it == nil || n != sv.ip.n || len(it.s) != len(it.x) || len(it.y) != sv.ip.m {
		return
	}
	for _, j := range cols {
		if j < 0 || j >= len(it.x) {
			return
		}
	}
	sv.warmY = append(sv.warmY[:0], it.y...)
	sv.warmX, sv.warmS = growFloats(sv.warmX, n), growFloats(sv.warmS, n)
	for i, j := range cols {
		sv.warmX[i], sv.warmS[i] = it.x[j], it.s[j]
	}
	sv.haveWarm = true
}

// Solve minimises the current instance, warm-starting from the previous
// optimal iterate (or the one StartFrom installed) when one exists. A
// warm attempt that fails to reach optimality is retried cold before
// anything is reported, so warm starting never changes the status a
// solve ends with; it does change iteration counts and the bits of the
// returned point, which is another point within the same tolerances.
func (sv *IPMSolver) Solve() (*Solution, error) {
	if err := faultinject.At(FaultSiteIPM); err != nil {
		return nil, fmt.Errorf("lp: injected fault: %w", err)
	}
	ip := sv.ip
	ip.fit(sv.ws)

	if sv.haveWarm && len(sv.warmX) == ip.n && len(sv.warmY) == ip.m {
		x, y, s := sv.warmPoint()
		sol, err := ip.run(x, y, s, sv.ws)
		if err != nil {
			// run stopped mid-way through the warm buffers.
			sv.haveWarm = false
			return nil, err
		}
		if sol.Status == Optimal {
			sv.saveWarm(x, y, s)
			return sol, nil
		}
		// Stale warm point: fall through to a cold start.
		sv.haveWarm = false
	}

	x := growFloats(sv.warmX, ip.n)
	s := growFloats(sv.warmS, ip.n)
	y := growFloats(sv.warmY, ip.m)
	sol, err := ip.coldRun(x, y, s, sv.ws)
	if err != nil {
		return nil, err
	}
	if sol.Status == Optimal {
		sv.saveWarm(x, y, s)
	} else {
		sv.haveWarm = false
	}
	return sol, nil
}

// warmPoint builds the starting point for a warm solve: the previous
// iterate pushed back into the interior by a μ-scaled floor. The arrays
// are the stored warm buffers themselves — run mutates them in place and
// saveWarm re-adopts them afterwards.
func (sv *IPMSolver) warmPoint() (x, y, s []float64) {
	floor := sv.warmFloor()
	for j := range sv.warmX {
		if sv.warmX[j] < floor {
			sv.warmX[j] = floor
		}
		if sv.warmS[j] < floor {
			sv.warmS[j] = floor
		}
	}
	return sv.warmX, sv.warmY, sv.warmS
}

// saveWarm adopts the final iterate of a successful solve as the next
// warm-start seed.
func (sv *IPMSolver) saveWarm(x, y, s []float64) {
	sv.warmX, sv.warmY, sv.warmS = x, y, s
	sv.haveWarm = true
}
