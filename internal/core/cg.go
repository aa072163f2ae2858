package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/lp"
	"repro/internal/roadnet"
)

// Fault-injection sites visited by the column-generation loop (see
// internal/faultinject): once per master solve and once per pricing
// subproblem.
const (
	FaultSiteCGMaster  = "core/cg/master"
	FaultSiteCGPricing = "core/cg/pricing"
)

// CGOptions tune the Dantzig–Wolfe column-generation solver.
type CGOptions struct {
	// Xi is the early-termination threshold on min_l ζ_l (Section 4.3.3):
	// the loop stops once every pricing subproblem's reduced cost is at
	// least Xi. Xi must be ≤ 0; 0 solves to (numerical) optimality.
	Xi float64
	// RelGap, when positive, additionally stops the loop once
	// (ETDD − dual bound)/ETDD falls below it.
	RelGap float64
	// MaxIterations bounds the master/pricing rounds (default 80).
	MaxIterations int
	// Workers is the pricing parallelism (default GOMAXPROCS).
	Workers int
	// Resume, when non-nil, seeds the master with columns of a previous
	// run instead of the synthetic seed family, and warm-starts each
	// pricing subproblem from that run's final basis, so the loop
	// restarts where the previous run stopped. A finished run's
	// in-memory state carries its final interior iterate: the master then
	// holds that iterate's support only (the columns it holds active,
	// x_j ≥ s_j, and for each convexity row none of them covers, its
	// column of largest x_j) and starts from the iterate's coordinates on
	// them. The columns left out carry no weight at the previous optimum,
	// and pricing finds again any of them the new duals want. A state
	// without an iterate or bases (a checkpoint, a restored snapshot)
	// seeds the master with its whole pool and starts the master and
	// pricing cold. The previous run may have had another prior: the
	// polyhedra Λ_l depend only on the geometry (network, δ, ε, r), and
	// so does the master's feasible set (its rows all have right-hand
	// side 1), so every pooled column stays feasible and only the costs
	// move: each column is re-costed against this problem. A state for
	// another number of intervals K is ignored.
	Resume *CGState
	// OnIteration, when non-nil, observes each round (for tracing and
	// convergence experiments).
	OnIteration func(iter int, stats CGIteration)
	// OnState, when non-nil, receives an immutable, Resume-able snapshot
	// of the column pool after every CheckpointRounds completed rounds:
	// the serving layer's pool checkpoint hook. It runs synchronously on
	// the solver goroutine.
	OnState func(iter int, st *CGState)
}

// CheckpointRounds is the round period of CGOptions.OnState, and so the
// most rounds a kill mid-solve can cost a solve that checkpoints.
const CheckpointRounds = 8

// ServingStop returns o with its stop rule set to the one vlpserved and
// vlp.Build solve every non-exact spec at: ξ −0.05, a 2% relative gap.
func (o CGOptions) ServingStop() CGOptions {
	o.Xi, o.RelGap = -0.05, 0.02
	return o
}

func (o CGOptions) withDefaults() CGOptions {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 80
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// CGIteration records one round of the master/pricing exchange.
type CGIteration struct {
	// MasterObj is the restricted master's optimal ETDD (including any
	// stabilization-slack penalty, which is zero at convergence).
	MasterObj float64
	// MinZeta is min_l ζ_l under the master duals, the paper's
	// convergence measure; ≥ 0 means the master solution is optimal for
	// the full DW formulation.
	MinZeta float64
	// LowerBound is the Lagrangian dual bound produced this round
	// (Theorem 4.4).
	LowerBound float64
	// ColumnsAdded counts new extreme points appended this round.
	ColumnsAdded int
	// Verified reports that pricing ran at the exact master duals (not a
	// smoothed point), so MinZeta is exact.
	Verified bool
	// MasterIterations is the Newton iteration count of the round's
	// master solve (lp.Solution.Iterations): the warm- versus cold-start
	// signal of the master.
	MasterIterations int
	// MasterElapsed is the wall time of the round's master solve.
	MasterElapsed time.Duration
	// Elapsed is the wall time of the round.
	Elapsed time.Duration
}

// CGResult is the outcome of SolveCG.
type CGResult struct {
	Mechanism *Mechanism
	// ETDD is the achieved quality loss (recomputed from the recovered
	// mechanism).
	ETDD float64
	// LowerBound is the best dual bound seen across iterations; the true
	// D-VLP optimum lies in [LowerBound, ETDD].
	LowerBound float64
	// Iterations traces the convergence (Figs. 13(b)-(f)).
	Iterations []CGIteration
	// Stopped carries a diagnostic when the loop ended on a cancellation
	// or a late master failure rather than a stop criterion; the
	// mechanism is still the valid incumbent of the last clean round.
	Stopped string
	// State is the final column pool, resumable via CGOptions.Resume. It
	// is immutable once returned and safe to share across goroutines.
	State *CGState
	// Elapsed is the total solve wall time.
	Elapsed time.Duration
}

// CGState is an opaque snapshot of a column-generation run's column
// pool. A run resumed from it (CGOptions.Resume) starts from the
// previous run's columns, so an interrupted or gap-limited solve
// continues rather than restarts: from every column of a checkpoint or
// snapshot, and from the support of a finished run's final iterate,
// in which case the resumed run's own pool is that support plus what it
// appends (the state's pool never changes). The serving layer keeps one
// pool per road network (δ, ε, r): a cold solve on an already-solved
// geometry resumes from its donor's state in memory, and failing that
// (a background upgrade of a degraded entry included) from the
// geometry's pool checkpoint on disk.
//
// A finished run's State also carries the run's final master iterate
// and pricing bases, which live in memory only, and what resumes from it
// derive once and share: the master compiled over the iterate's support,
// which the first resume from the state keeps for every later one to
// clone, and each basis's inverse, which the first resume to factor the
// basis keeps. Checkpoints (OnState) and snapshots (Snapshot,
// RestoreCGState) hold the pool alone, so a run resumed from one
// compiles its master over the whole pool and starts it and its pricing
// cold, and its bits can differ from a run resumed from the in-memory
// state it was taken of. Only SolveCGCtx and RestoreCGState build one,
// so every state is well formed for its own K, and a resume checks K
// alone.
type CGState struct {
	k       int
	columns []cgColumn
	// master is the run's final master iterate, extended over the
	// columns appended after the last master solve (nil when that solve
	// did not end optimal). Read-only: a resumed master starts from a
	// copy.
	master *lp.Iterate
	// bases are the run's final per-l pricing bases (a nil entry for a
	// subproblem never solved to optimality), frozen: read-only but for
	// each one's inverse memo, which the first resume to factor it fills.
	// A resumed pricer starts from them and captures its own. Nil on a
	// checkpoint or restored snapshot.
	bases []*lp.Basis
	// compiled is the master over the columns a resume keeps
	// (resumeColumns: 2K slacks, then one variable per kept pool column,
	// in pool order) without costs, workspace or iterate, once a resume
	// from a finished run's state has compiled it; later resumes clone it
	// under their own costs. Read-only: a clone copies it before
	// appending a column.
	compiled atomic.Pointer[lp.FrozenIPM]
}

// Columns returns the pool size (0 for a nil state).
func (st *CGState) Columns() int {
	if st == nil {
		return 0
	}
	return len(st.columns)
}

// compiledMaster returns the master a resume from st compiled and kept,
// or nil (st nil included).
func (st *CGState) compiledMaster() *lp.FrozenIPM {
	if st == nil {
		return nil
	}
	return st.compiled.Load()
}

// validFor reports whether the snapshot matches a problem with k true
// intervals.
func (st *CGState) validFor(k int) bool {
	return st != nil && st.k == k
}

// resumeColumns returns the columns a run resumed from st starts its
// master with, re-costed for pr (on st's own problem the costs come out
// unchanged) and sharing their entries with st (extreme points are
// immutable), and the support: for each of that master's variables, the
// column of st's iterate it starts from (the 2K slacks, then the kept
// pool columns, in pool order).
//
// The master keeps the iterate's support: every pool column the iterate
// holds active (x_j ≥ s_j), and for each convexity row l that none of
// them covers, l's column of largest x_j, without which the row would be
// infeasible. The columns left out carry no weight at the previous
// optimum, and pricing finds again any of them the new duals want. A
// state with no iterate over its pool (a checkpoint, a restored
// snapshot, a run whose last master did not end optimal) keeps its
// whole pool, and its support is nil: the master starts cold.
func (st *CGState) resumeColumns(pr *Problem) ([]cgColumn, []int) {
	k, it := st.k, st.master
	if it.Columns() != 2*k+len(st.columns) {
		columns := make([]cgColumn, len(st.columns), len(st.columns)+k)
		for i, c := range st.columns {
			columns[i] = cgColumn{l: c.l, z: c.z, cost: pr.columnCost(c.l, c.z)}
		}
		return columns, nil
	}
	// pick[l] is 1 + the pool index of l's largest-x column while no
	// active column covers l (0: none seen), then covered.
	const covered = -1
	pick := make([]int, k)
	n := 0
	for i, c := range st.columns {
		if it.Active(2*k + i) {
			n++
			pick[c.l] = covered
		} else if p := pick[c.l]; p == 0 || (p > 0 && it.X(2*k+i) > it.X(2*k+p-1)) {
			pick[c.l] = i + 1
		}
	}
	for _, p := range pick {
		if p > 0 {
			n++
		}
	}
	support := make([]int, 2*k, 2*k+n)
	for j := range support {
		support[j] = j
	}
	columns := make([]cgColumn, 0, n+k)
	for i, c := range st.columns {
		if it.Active(2*k+i) || pick[c.l] == i+1 {
			support = append(support, 2*k+i)
			columns = append(columns, cgColumn{l: c.l, z: c.z, cost: pr.columnCost(c.l, c.z)})
		}
	}
	return columns, support
}

// cgColumn is one extreme point ẑ of a polyhedron Λ_l together with its
// objective contribution.
type cgColumn struct {
	l    int
	z    []float64 // K entries over true intervals
	cost float64   // Σ_i c_{i,l} z_i
}

const cgTol = 1e-9

// cgSmoothing is the Wentges dual-smoothing weight β: pricing runs at
// β·(best-bound dual) + (1−β)·(master dual), which damps the dual
// oscillation of degenerate masters.
const cgSmoothing = 0.8

// SolveCG solves D-VLP by Dantzig–Wolfe decomposition (Section 4.3).
//
// The master program optimises convex weights over known extreme points
// of the per-column polyhedra Λ_l under the K unit-measure rows and K
// convexity rows; each pricing subproblem sub_l minimises the reduced
// cost (c_l − π)·z − μ_l over Λ_l (reduced Geo-I rows + 0 ≤ z ≤ 1) and
// proposes a new extreme point when its optimum ζ_l is negative.
// Subproblems share no variables and are priced in parallel.
//
// Two standard column-generation stabilizers keep the degenerate master
// from oscillating: bounded-penalty slacks on the unit rows (escalated
// when binding, so exactness is preserved) and Wentges smoothing of the
// pricing duals with a verification pass at the exact master duals
// before any optimality claim.
//
// A round admits every column whose reduced cost is below −1e-9, so it
// adds none exactly when min ζ ≥ ξ; the loop then stops, unless the
// slack box binds, which widens ρ tenfold instead.
//
// SolveCG runs SolveCGCtx to completion; SolveCGCtx is the cancellable
// entry point.
//
//lint:ignore ctxflow the run-to-completion wrapper of SolveCGCtx, which is the cancellable entry point
func SolveCG(pr *Problem, opts CGOptions) (*CGResult, error) {
	//lint:ignore ctxflow the run-to-completion wrapper of SolveCGCtx, which is the cancellable entry point
	return SolveCGCtx(context.Background(), pr, opts)
}

// SolveCGCtx solves D-VLP by column generation under a context.
//
// Cancellation semantics: the context is polled at every master/pricing
// round boundary and inside each LP solve (per simplex-pivot batch, per
// IPM Newton iteration), so abandonment latency is bounded by roughly
// one master round. When the context expires after at least one master
// solve has completed, SolveCGCtx returns the *incumbent* — a CGResult
// whose Mechanism is the valid (feasible up to solver tolerance) primal
// solution of the last completed master, with Stopped describing the
// interruption — together with the context's error. Callers that want
// graceful degradation use the mechanism; callers that want
// all-or-nothing semantics treat the non-nil error as fatal. If the
// context expires before any master solve completes, the result is nil.
//
// Any panic escaping the solver stack (a numeric breakdown deep in a
// factorisation) is recovered and returned as a *PanicError instead of
// unwinding into the caller.
func SolveCGCtx(ctx context.Context, pr *Problem, opts CGOptions) (res *CGResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, newPanicError("core.SolveCG", r)
		}
	}()
	opts = opts.withDefaults()
	if opts.Xi > 0 {
		return nil, fmt.Errorf("core: CG threshold Xi must be ≤ 0, got %v", opts.Xi)
	}
	start := time.Now()
	k := pr.Part.K()

	var columns []cgColumn
	// support names the resumed master's columns among those of the
	// previous run's iterate (nil: the whole pool, no iterate).
	var support []int
	resume := opts.Resume
	if resume.validFor(k) {
		columns, support = resume.resumeColumns(pr)
	} else {
		resume = nil
		columns = seedColumns(pr)
	}
	sub, err := newPricer(pr, opts)
	if err != nil {
		return nil, fmt.Errorf("core: CG pricing setup: %w", err)
	}
	if resume != nil {
		sub.startBases = resume.bases
	}
	res = &CGResult{LowerBound: math.Inf(-1)}
	var lambda []float64
	// ctxErr records a cancellation observed mid-run; the loop breaks
	// with the incumbent and the error is returned alongside the result.
	var ctxErr error

	rho := startRho(pr)
	const slackTol = 1e-7

	xi := opts.Xi
	if xi > -cgTol {
		xi = -cgTol
	}

	// Persistent master: compiled once over the initial columns, or
	// cloned from the compiled master a previous resume from the same
	// finished run kept, whose columns are these; grown in place as
	// columns arrive.
	var ms *masterState
	if f := resume.compiledMaster(); f != nil {
		ms = cloneMasterState(k, f, columns, rho)
	} else {
		if ms, err = newMasterState(pr, columns, rho); err != nil {
			return nil, fmt.Errorf("core: CG master setup: %w", err)
		}
		if resume != nil && resume.bases != nil {
			// Only a finished run's in-memory state keeps it (a restored
			// snapshot or a checkpoint carries no bases): the serving
			// layer shares that one across resumes, and reads a stored
			// pool afresh for each.
			resume.compiled.CompareAndSwap(nil, ms.sv.Compiled())
		}
	}
	if support != nil {
		// The master's rows do not depend on the prior, so the previous
		// run's final point, over the columns kept, is a warm start for
		// the re-costed pool.
		ms.sv.StartFrom(resume.master, support)
	}

	var piStab []float64 // dual point of the best Lagrangian bound

rounds:
	for iter := 0; iter < opts.MaxIterations; iter++ {
		if cerr := ctx.Err(); cerr != nil {
			ctxErr = cerr
			res.Stopped = fmt.Sprintf("cancelled before iteration %d: %v", iter, cerr)
			break
		}
		iterStart := time.Now()

		merr := faultinject.At(FaultSiteCGMaster)
		var masterObj, slack float64
		var lam, piM, muM []float64
		var masterIters int
		masterStart := time.Now()
		if merr == nil {
			masterObj, lam, piM, muM, slack, masterIters, merr = ms.solve(ctx)
		}
		masterElapsed := time.Since(masterStart)
		if merr != nil {
			if lambda == nil {
				// No master has ever solved: there is no incumbent to
				// degrade to.
				return nil, fmt.Errorf("core: CG master iteration %d: %w", iter, merr)
			}
			// A late master failure leaves a valid incumbent from the
			// previous round; stop generating columns and return it
			// (the dual bound still brackets its gap).
			res.Stopped = fmt.Sprintf("master solve failed at iteration %d: %v", iter, merr)
			if cerr := ctx.Err(); cerr != nil {
				ctxErr = cerr
			}
			break
		}
		lambda = lam

		// Pricing point: smoothed toward the best-bound dual.
		piUse := piM
		if piStab != nil {
			piUse = make([]float64, k)
			for i := range piUse {
				piUse[i] = cgSmoothing*piStab[i] + (1-cgSmoothing)*piM[i]
			}
		}

		var it CGIteration
		verified := samePoint(piUse, piM)
		rcs := make([]float64, k)
		for {
			subMins, cols, perr := sub.priceAll(ctx, piUse)
			if perr != nil {
				if cerr := ctx.Err(); cerr != nil {
					// Cancellation mid-pricing: this round's master
					// solution is a complete, valid incumbent.
					ctxErr = cerr
					res.Stopped = fmt.Sprintf("cancelled during pricing at iteration %d: %v", iter, cerr)
					break rounds
				}
				return nil, fmt.Errorf("core: CG pricing iteration %d: %w", iter, perr)
			}

			// Lagrangian bound L(π) = Σ_k π_k + Σ_l min_{z∈Λ_l}(c_l − π)z,
			// valid at any dual point (Theorem 4.4).
			bound := 0.0
			for _, p := range piUse {
				bound += p
			}
			for _, m := range subMins {
				bound += m
			}
			if bound > res.LowerBound {
				res.LowerBound = bound
				piStab = append([]float64(nil), piUse...)
			}

			// Reduced costs of the proposed columns under the exact
			// master duals decide both termination and admission.
			minRc := math.Inf(1)
			for l, c := range cols {
				rc := c.cost - muM[l]
				for i := 0; i < k; i++ {
					rc -= piM[i] * c.z[i]
				}
				rcs[l] = rc
				if rc < minRc {
					minRc = rc
				}
			}

			it = CGIteration{
				MasterObj:        masterObj,
				MinZeta:          minRc,
				LowerBound:       bound,
				Verified:         verified,
				MasterIterations: masterIters,
				MasterElapsed:    masterElapsed,
			}

			if minRc >= xi && !verified {
				// Possible mispricing at the smoothed point: verify at
				// the exact master duals before concluding.
				piUse = piM
				verified = true
				continue
			}
			if minRc < xi {
				for l, c := range cols {
					if rcs[l] < -cgTol {
						columns = append(columns, c)
						ms.addColumn(c)
						it.ColumnsAdded++
					}
				}
			}
			break
		}

		it.Elapsed = time.Since(iterStart)
		res.Iterations = append(res.Iterations, it)
		if opts.OnIteration != nil {
			opts.OnIteration(iter, it)
		}
		if opts.OnState != nil && (iter+1)%CheckpointRounds == 0 {
			// Snapshot the pool under a fresh slice header: existing
			// columns are immutable, only the slice itself still grows.
			opts.OnState(iter, &CGState{k: k, columns: append([]cgColumn(nil), columns...)})
		}

		gapMet := opts.RelGap > 0 && masterObj > 0 &&
			(masterObj-res.LowerBound)/masterObj <= opts.RelGap && slack <= slackTol
		if it.MinZeta >= xi {
			if slack > slackTol {
				// Converged against a binding dual box: widen and go on.
				rho *= 10
				ms.setRho(rho)
				continue
			}
			break
		}
		if gapMet {
			break
		}
	}

	if lambda == nil {
		// Cancelled before the first master round ever completed: no
		// incumbent exists, only the error is meaningful.
		return nil, ctxErr
	}

	// Recover Z from the final master weights: z_{·,l} = Σ_t λ_{l,t} ẑ_t.
	// Columns appended after the last master solve carry no weight, so
	// only the first len(lambda) columns participate.
	z := make([]float64, k*k)
	for ci, c := range columns[:len(lambda)] {
		for i := 0; i < k; i++ {
			z[i*k+c.l] += lambda[ci] * c.z[i]
		}
	}
	normalizeRows(z, k)
	res.Mechanism = &Mechanism{Part: pr.Part, Z: z}
	res.ETDD = pr.ETDD(res.Mechanism)
	// Snapshot the pool, the master iterate and the pricing bases for
	// CGOptions.Resume; the master and the pricer are done, so none is
	// mutated after this point.
	for _, b := range sub.dualBases {
		b.Freeze()
	}
	res.State = &CGState{k: k, columns: columns, master: ms.sv.Iterate(), bases: sub.dualBases}
	ms.sv.Release()
	// The Lagrangian bound can be vacuous (negative) when the loop stops
	// very early; quality loss is non-negative by definition.
	if res.LowerBound < 0 {
		res.LowerBound = 0
	}
	res.Elapsed = time.Since(start)
	// A cancelled run still returns its incumbent: callers use the
	// mechanism for graceful degradation or drop it for all-or-nothing
	// semantics.
	return res, ctxErr
}

// startRho is the dual box radius the master's stabilization slacks
// start at: ten times the largest cost, or 1 when no cost is positive.
func startRho(pr *Problem) float64 {
	cmax := 0.0
	for _, c := range pr.Costs {
		if c > cmax {
			cmax = c
		}
	}
	if cmax <= 0 {
		return 1
	}
	return 10 * cmax
}

func samePoint(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lint:ignore floateq the pricing certificate is only valid at the exact dual point; bitwise identity is the contract here
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seedColumns builds the initial master columns. The full seed family
// holds, per polyhedron Λ_l, unnormalised exponential columns
// e^{−γ·ε·d_sym(·,l)} at several sharpness levels γ ∈ (0, 1] — all
// feasible for Λ_l because d_sym is a metric with d_sym ≤ d on adjacent
// pairs — plus the zero vertex, plus the columns of the normalised ε/2
// exponential mechanism, which collectively form a feasible master
// solution (so no artificial variables are ever needed).
func seedColumns(pr *Problem) []cgColumn {
	k := pr.Part.K()
	mech := pr.ExponentialMechanism()
	sym := pr.Sym()
	gammas := []float64{1, 0.5, 0.25}
	columns := make([]cgColumn, 0, (2+len(gammas))*k)
	for l := 0; l < k; l++ {
		z := make([]float64, k)
		for i := 0; i < k; i++ {
			z[i] = mech.Z[i*k+l]
		}
		columns = append(columns,
			cgColumn{l: l, z: z, cost: pr.columnCost(l, z)},
			cgColumn{l: l, z: make([]float64, k), cost: 0},
		)
		for _, g := range gammas {
			ze := make([]float64, k)
			eps := pr.MinEps()
			for i := 0; i < k; i++ {
				ze[i] = math.Exp(-g * eps * sym.Dist(roadnet.NodeID(i), roadnet.NodeID(l)))
			}
			columns = append(columns, cgColumn{l: l, z: ze, cost: pr.columnCost(l, ze)})
		}
	}
	return columns
}

// columnCost is Σ_i c_{i,l} z_i.
func (pr *Problem) columnCost(l int, z []float64) float64 {
	k := pr.Part.K()
	c := 0.0
	for i := 0; i < k; i++ {
		c += pr.Costs[i*k+l] * z[i]
	}
	return c
}

// masterState is the persistent restricted master: one interior-point
// instance kept alive for the whole column-generation run. The variable
// layout puts the 2K stabilization slacks first (so their indices never
// move) and appends one variable per admitted column after them; rows
// are the K unit rows followed by the K convexity rows, all equalities.
// Between rounds only three things change, each in place: new columns
// are appended (AddColumn), the slack penalty ρ is retuned
// (SetObjectiveCoeff), and the solver warm-starts from its previous
// optimal iterate — falling back to a cold start internally whenever
// that iterate goes stale.
type masterState struct {
	k  int
	sv *lp.IPMSolver

	entryBuf []lp.Term // scratch for column entries
}

// newMasterState compiles the master over the 2K slacks, then appends
// the initial column pool into storage reserved for it.
func newMasterState(pr *Problem, columns []cgColumn, rho float64) (*masterState, error) {
	k := pr.Part.K()
	prob := lp.NewProblem(2 * k)
	for s := 0; s < 2*k; s++ {
		prob.SetObjectiveCoeff(s, rho)
	}
	// Unit rows 0..k−1: s_i⁺ − s_i⁻ + Σ ẑ_i λ = 1; convexity rows
	// k..2k−1: Σ_{t∈l} λ_{l,t} = 1 (filled by the column appends below).
	for i := 0; i < k; i++ {
		prob.AddConstraint([]lp.Term{{Var: 2 * i, Coef: 1}, {Var: 2*i + 1, Coef: -1}}, lp.EQ, 1)
	}
	for l := 0; l < k; l++ {
		prob.AddConstraint(nil, lp.EQ, 1)
	}
	sv, err := lp.NewIPMSolver(prob)
	if err != nil {
		return nil, err
	}
	ms := &masterState{k: k, sv: sv}
	nnz := 0
	for _, c := range columns {
		nnz += len(ms.colEntries(c))
	}
	sv.Reserve(len(columns), nnz)
	for _, c := range columns {
		ms.addColumn(c)
	}
	return ms, nil
}

// cloneMasterState builds the master newMasterState would compile over
// columns from f, a previous run's compiled master over the same
// columns in the same order: only the costs are this run's, ρ on the 2K
// slacks and each column's re-costed value.
func cloneMasterState(k int, f *lp.FrozenIPM, columns []cgColumn, rho float64) *masterState {
	c := make([]float64, 2*k+len(columns))
	for s := 0; s < 2*k; s++ {
		c[s] = rho
	}
	for i, col := range columns {
		c[2*k+i] = col.cost
	}
	return &masterState{k: k, sv: f.Clone(c)}
}

// colEntries renders a column's entries in ascending row order (unit
// rows it touches, then its convexity row) into the scratch buffer.
func (ms *masterState) colEntries(c cgColumn) []lp.Term {
	ms.entryBuf = ms.entryBuf[:0]
	for i, v := range c.z {
		if v != 0 {
			ms.entryBuf = append(ms.entryBuf, lp.Term{Var: i, Coef: v})
		}
	}
	ms.entryBuf = append(ms.entryBuf, lp.Term{Var: ms.k + c.l, Coef: 1})
	return ms.entryBuf
}

// addColumn admits a priced-out column into the live master.
func (ms *masterState) addColumn(c cgColumn) {
	ms.sv.AddColumn(c.cost, ms.colEntries(c))
}

// setRho retunes the stabilization penalty on all 2K slack variables.
func (ms *masterState) setRho(rho float64) {
	for s := 0; s < 2*ms.k; s++ {
		ms.sv.SetObjectiveCoeff(s, rho)
	}
}

// solve re-solves the live master, returning its objective, the column
// weights λ, the duals π (unit rows) and μ (convexity rows), the total
// mass on stabilization slacks and the Newton iteration count. The
// returned slices alias the solver's solution and are valid until the
// next solve.
//
// Stabilization: the master's unit rows are softened to
// Σ ẑ_k λ + s_k⁺ − s_k⁻ = 1 with cost ρ per unit of slack, which caps the
// dual prices at |π_k| ≤ ρ. Without this, the heavily degenerate master
// has wildly non-unique duals and the pricing loop oscillates instead of
// converging. When the box binds (slack > 0), the caller escalates ρ and
// re-solves, so the final answer is exact. The master is solved with the
// interior-point method, which needs no vertex (the recovered mechanism
// is a convex combination anyway) and produces the well-centred duals
// column generation wants.
func (ms *masterState) solve(ctx context.Context) (obj float64, lambda, pi, mu []float64, slackUse float64, iters int, err error) {
	ms.sv.SetContext(ctx)
	sol, err := ms.sv.Solve()
	if err != nil {
		return 0, nil, nil, nil, 0, 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, nil, nil, nil, 0, 0, fmt.Errorf("master LP (%d rows, %d cols) ended %v after %d IPM iterations",
			2*ms.k, ms.sv.NumVars(), sol.Status, sol.Iterations)
	}
	for s := 0; s < 2*ms.k; s++ {
		slackUse += sol.X[s]
	}
	return sol.Objective, sol.X[2*ms.k:], sol.Duals[:ms.k], sol.Duals[ms.k : 2*ms.k], slackUse, sol.Iterations, nil
}

// pricer solves the K pricing subproblems.
//
// The primal form of sub_l — min w·z over Λ_l = {Gz ≤ 0, 0 ≤ z ≤ 1} with
// G the reduced Geo-I rows — has 2P+K rows that are almost all tight at
// zero: a maximally degenerate shape on which the simplex crawls.
// Pricing therefore solves the LP dual,
//
//	min b·u  s.t.  Aᵀu ≥ −w, u ≥ 0,   A = [G; I], b = (0…0, 1…1),
//
// which has only K rows with generic right-hand sides, and recovers the
// primal minimiser z* as the dual prices of that problem (the dual of
// the dual is the primal). Every recovered column is verified against
// Λ_l; a dual solve that does not end optimal, or a cold solve's column
// outside Λ_l, is a pricing error.
//
// Each worker owns one persistent compiled dual instance, plus one basis
// snapshot per subproblem. A subproblem is handled by exactly one worker
// per round and rounds are separated by a WaitGroup barrier, so the
// per-l basis slots are race-free even though successive rounds may
// assign l to different workers.
type pricer struct {
	pr *Problem
	// pairF caches e^{ε·D} per reduced pair for feasibility checks.
	pairF []float64

	workers   []*lp.Prepared // one persistent dual instance per worker
	dualBases []*lp.Basis
	// startBases are a resumed run's bases (nil on a seeded run): sub_l's
	// first solve starts from startBases[l], which is never written.
	startBases []*lp.Basis
}

func newPricer(pr *Problem, opts CGOptions) (*pricer, error) {
	k := pr.Part.K()
	p := &pricer{pr: pr}
	pairs := pr.Red().Pairs

	// Dual rows: u layout is [2 per pair][K box]. The primal rows are
	// z_A − f·z_B ≤ 0 and z_B − f·z_A ≤ 0 per reduced pair, plus the unit
	// box z_i ≤ 1 that makes the extreme points of the cone Λ_l
	// well-defined. Primal column of z_i appears in pair rows (±1 / −f)
	// and its own box row (+1).
	p.pairF = make([]float64, len(pairs))
	dualRows := make([][]lp.Term, k)
	for pi, pair := range pairs {
		f := math.Exp(pr.reducedPairEps(pair) * pair.D)
		p.pairF[pi] = f
		u1, u2 := 2*pi, 2*pi+1
		// Row u1: z_A − f·z_B ≤ 0  →  contributes +1 to z_A's dual row,
		// −f to z_B's. Row u2 is the mirrored direction.
		dualRows[pair.A] = append(dualRows[pair.A],
			lp.Term{Var: u1, Coef: 1}, lp.Term{Var: u2, Coef: -f})
		dualRows[pair.B] = append(dualRows[pair.B],
			lp.Term{Var: u1, Coef: -f}, lp.Term{Var: u2, Coef: 1})
	}
	for i := 0; i < k; i++ {
		dualRows[i] = append(dualRows[i], lp.Term{Var: 2*len(pairs) + i, Coef: 1})
	}

	// Dual template with placeholder right-hand sides: structure (and
	// hence equilibration) is fixed, only −w_i changes between solves.
	dual := lp.NewProblem(2*len(pairs) + k)
	for b := 0; b < k; b++ {
		dual.SetObjectiveCoeff(2*len(pairs)+b, 1)
	}
	for i := 0; i < k; i++ {
		dual.AddConstraint(dualRows[i], lp.GE, 0)
	}

	workers := opts.Workers
	if workers > k {
		workers = k
	}
	p.workers = make([]*lp.Prepared, workers)
	for w := range p.workers {
		pp, err := lp.Prepare(dual)
		if err != nil {
			return nil, err
		}
		p.workers[w] = pp
	}
	p.dualBases = make([]*lp.Basis, k)
	return p, nil
}

// priceAll solves every sub_l at dual point π, returning per block the
// subproblem optimum min_{z∈Λ_l}(c_l − π)·z and the minimiser column.
// Workers poll ctx between subproblems, so a cancelled pricing round
// returns within one subproblem solve per worker.
func (p *pricer) priceAll(ctx context.Context, pi []float64) ([]float64, []cgColumn, error) {
	k := p.pr.Part.K()
	mins := make([]float64, k)
	cols := make([]cgColumn, k)
	errs := make([]error, k)

	var wg sync.WaitGroup
	work := make(chan int)
	for _, wk := range p.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := range work {
				if cerr := ctx.Err(); cerr != nil {
					errs[l] = cerr
					continue
				}
				// A panic on a worker goroutine would crash the process —
				// the caller's recover cannot reach it — so each subproblem
				// converts its own panics into a *PanicError.
				func() {
					defer func() {
						if r := recover(); r != nil {
							errs[l] = newPanicError("core.pricer", r)
						}
					}()
					mins[l], cols[l], errs[l] = p.priceOne(ctx, wk, l, pi)
				}()
			}
		}()
	}
	for l := 0; l < k; l++ {
		work <- l
	}
	close(work)
	wg.Wait()

	for l, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("sub_%d: %w", l, err)
		}
	}
	return mins, cols, nil
}

// priceOne solves sub_l on the worker's persistent instances: the dual
// LP's right-hand sides are retuned in place and the simplex restarts
// from the basis that was optimal for this subproblem last round. Since
// only −w moves between rounds (by however much the master duals moved),
// that basis is typically a handful of dual-simplex pivots from
// re-optimal; a stale basis silently costs a cold solve, never a wrong
// answer. A warm solve whose column fails the Λ_l check is re-solved
// cold once, and only a cold column outside Λ_l is an error. A resumed
// run's first solve of sub_l starts from the previous run's basis,
// which SolveFrom only reads; Basis then copies the new one into this
// run's own slot, so a state shared by concurrent resumes is never
// written.
func (p *pricer) priceOne(ctx context.Context, dual *lp.Prepared, l int, pi []float64) (float64, cgColumn, error) {
	if err := faultinject.At(FaultSiteCGPricing); err != nil {
		return 0, cgColumn{}, fmt.Errorf("injected fault: %w", err)
	}
	k := p.pr.Part.K()
	dual.SetContext(ctx)
	for i := 0; i < k; i++ {
		w := p.pr.Costs[i*k+l] - pi[i]
		dual.SetRHS(i, -w)
	}
	from := p.dualBases[l]
	if from == nil && p.startBases != nil {
		from = p.startBases[l]
	}
	for {
		sol, err := dual.SolveFrom(from)
		if err != nil {
			return 0, cgColumn{}, err
		}
		if sol.Status != lp.Optimal {
			return 0, cgColumn{}, fmt.Errorf("pricing dual LP ended %v", sol.Status)
		}
		z := make([]float64, k)
		for i := 0; i < k; i++ {
			z[i] = clamp01(sol.Duals[i])
		}
		if p.feasible(z) {
			p.dualBases[l] = dual.Basis(p.dualBases[l])
			col := cgColumn{l: l, z: z, cost: p.pr.columnCost(l, z)}
			return -sol.Objective, col, nil // min wᵀz = −min bᵀu
		}
		if from == nil {
			return 0, cgColumn{}, fmt.Errorf("recovered pricing column lies outside Λ_%d", l)
		}
		// A long warm run can end optimal on a basis whose duals leave
		// Λ_l by more than the check allows, where the cold solve of the
		// same subproblem lands inside it: re-solve cold once.
		from = nil
	}
}

// feasible verifies a recovered column against Λ_l within tolerance.
func (p *pricer) feasible(z []float64) bool {
	const tolF = 1e-7
	for pi, pair := range p.pr.Red().Pairs {
		f := p.pairF[pi]
		if z[pair.A]-f*z[pair.B] > tolF || z[pair.B]-f*z[pair.A] > tolF {
			return false
		}
	}
	return true
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
