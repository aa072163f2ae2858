package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
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
	// Resume, when non-nil, seeds the master with the column pool of a
	// previous run on the same problem instead of the synthetic seed
	// family, so the loop restarts where the previous run stopped. A
	// state whose shape does not match the problem is ignored.
	Resume *CGState
	// LP passes solver options to both master and subproblems. SolveCG
	// runs under LP.Ctx; SolveCGCtx's own context replaces it.
	LP lp.Options
	// OnIteration, when non-nil, observes each round (for tracing and
	// convergence experiments).
	OnIteration func(iter int, stats CGIteration)
	// OnState, when non-nil and CheckpointEvery > 0, receives an
	// immutable snapshot of the column pool after every CheckpointEvery
	// completed rounds. This is the serving layer's checkpoint hook: the
	// snapshot is Resume-able, so a process killed between rounds can
	// restart column generation from its last persisted pool instead of
	// from scratch. The callback runs synchronously on the solver
	// goroutine — a slow callback extends the solve by its own latency.
	OnState func(iter int, st *CGState)
	// CheckpointEvery is the round period of OnState; 0 disables it.
	CheckpointEvery int
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
	// Stopped carries a diagnostic when the loop ended early on a
	// numerical condition rather than a convergence criterion; the
	// mechanism is still the valid incumbent of the last clean round.
	Stopped string
	// State is the final column pool, resumable via CGOptions.Resume. It
	// is immutable once returned and safe to share across goroutines.
	State *CGState
	// Elapsed is the total solve wall time.
	Elapsed time.Duration
}

// CGState is an opaque snapshot of a column-generation run's column
// pool. A run resumed from it (CGOptions.Resume) re-admits every column
// the previous run priced out, so an interrupted or gap-limited solve
// continues rather than restarts — the background-upgrade path of the
// serving layer warm-starts from its incumbent's state this way.
type CGState struct {
	k       int
	columns []cgColumn
}

// Columns returns the pool size (0 for a nil state).
func (st *CGState) Columns() int {
	if st == nil {
		return 0
	}
	return len(st.columns)
}

// validFor reports whether the snapshot matches a problem with k true
// intervals.
func (st *CGState) validFor(k int) bool {
	if st == nil || st.k != k || len(st.columns) == 0 {
		return false
	}
	covered := make([]bool, k)
	for _, c := range st.columns {
		if len(c.z) != k || c.l < 0 || c.l >= k {
			return false
		}
		covered[c.l] = true
	}
	// Every convexity row needs at least one column or the master is
	// structurally infeasible.
	for _, ok := range covered {
		if !ok {
			return false
		}
	}
	return true
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
// SolveCG is SolveCGCtx under opts.LP.Ctx, or a background context
// when that is nil.
func SolveCG(pr *Problem, opts CGOptions) (*CGResult, error) {
	ctx := opts.LP.Ctx
	if ctx == nil {
		//lint:ignore ctxflow a nil LP.Ctx means run to completion, as everywhere in lp.Options
		ctx = context.Background()
	}
	return SolveCGCtx(ctx, pr, opts)
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
	if opts.Resume.validFor(k) {
		// Restart from a previous run's pool: the columns are immutable,
		// so sharing the backing entries (but not the slice header) with
		// the donor state is safe.
		columns = append(make([]cgColumn, 0, len(opts.Resume.columns)+k), opts.Resume.columns...)
	} else {
		columns = seedColumns(pr)
	}
	sub, err := newPricer(pr, opts)
	if err != nil {
		return nil, fmt.Errorf("core: CG pricing setup: %w", err)
	}
	res = &CGResult{LowerBound: math.Inf(-1)}
	var lambda []float64
	// ctxErr records a cancellation observed mid-run; the loop breaks
	// with the incumbent and the error is returned alongside the result.
	var ctxErr error

	// Dual box radius for the master stabilization slacks.
	cmax := 0.0
	for _, c := range pr.Costs {
		if c > cmax {
			cmax = c
		}
	}
	rho := 10 * cmax
	if rho <= 0 {
		rho = 1
	}
	const slackTol = 1e-7

	xi := opts.Xi
	if xi > -cgTol {
		xi = -cgTol
	}

	// Persistent master: compiled once over the seed pool, grown in place
	// as columns arrive.
	ms, err := newMasterState(pr, columns, rho, opts.LP)
	if err != nil {
		return nil, fmt.Errorf("core: CG master setup: %w", err)
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
		if merr == nil {
			masterObj, lam, piM, muM, slack, merr = ms.solve(ctx)
		}
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
				if rc < minRc {
					minRc = rc
				}
				cols[l] = c
			}

			it = CGIteration{
				MasterObj:  masterObj,
				MinZeta:    minRc,
				LowerBound: bound,
				Verified:   verified,
			}

			if minRc >= xi {
				if !verified {
					// Possible mispricing at the smoothed point: verify
					// at the exact master duals before concluding.
					piUse = piM
					verified = true
					continue
				}
				break
			}

			added := 0
			for l, c := range cols {
				rc := c.cost - muM[l]
				for i := 0; i < k; i++ {
					rc -= piM[i] * c.z[i]
				}
				if rc < -cgTol && !duplicateColumn(columns, c) {
					columns = append(columns, c)
					ms.addColumn(c)
					added++
				}
			}
			if added == 0 && !verified {
				piUse = piM
				verified = true
				continue
			}
			it.ColumnsAdded = added
			break
		}

		it.Elapsed = time.Since(iterStart)
		res.Iterations = append(res.Iterations, it)
		if opts.OnIteration != nil {
			opts.OnIteration(iter, it)
		}
		if opts.OnState != nil && opts.CheckpointEvery > 0 && (iter+1)%opts.CheckpointEvery == 0 {
			// Snapshot the pool under a fresh slice header: existing
			// columns are immutable, only the slice itself still grows.
			opts.OnState(iter, &CGState{k: k, columns: append([]cgColumn(nil), columns...)})
		}

		converged := it.MinZeta >= xi && it.ColumnsAdded == 0
		gapMet := opts.RelGap > 0 && masterObj > 0 &&
			(masterObj-res.LowerBound)/masterObj <= opts.RelGap && slack <= slackTol
		if converged {
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
		if it.ColumnsAdded == 0 {
			if slack > slackTol {
				rho *= 10
				ms.setRho(rho)
				continue
			}
			// Verified negative reduced costs, yet every proposed column
			// already exists: a numerical stall. The incumbent stands and
			// the dual bound brackets its gap.
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
		w := lambda[ci]
		if w <= 0 {
			continue
		}
		for i := 0; i < k; i++ {
			z[i*k+c.l] += w * c.z[i]
		}
	}
	normalizeRows(z, k)
	res.Mechanism = &Mechanism{Part: pr.Part, Z: z}
	res.ETDD = pr.ETDD(res.Mechanism)
	// Snapshot the pool for CGOptions.Resume; the slice is never mutated
	// after this point.
	res.State = &CGState{k: k, columns: columns}
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
			// At small ε the γ family flattens toward the all-ones
			// vector; near-collinear columns only degrade the master's
			// conditioning, so drop them.
			if nearDuplicateSeed(columns, l, ze) {
				continue
			}
			columns = append(columns, cgColumn{l: l, z: ze, cost: pr.columnCost(l, ze)})
		}
	}
	return columns
}

// nearDuplicateSeed reports whether block l already has a seed column
// within 1e-3 of ze in every entry.
func nearDuplicateSeed(columns []cgColumn, l int, ze []float64) bool {
outer:
	for _, old := range columns {
		if old.l != l {
			continue
		}
		for i, v := range old.z {
			if math.Abs(v-ze[i]) > 1e-3 {
				continue outer
			}
		}
		return true
	}
	return false
}

// duplicateColumn reports whether an (l-matching) column with the same
// entries up to a small tolerance already exists.
func duplicateColumn(columns []cgColumn, c cgColumn) bool {
outer:
	for _, old := range columns {
		if old.l != c.l {
			continue
		}
		for i, v := range old.z {
			if math.Abs(v-c.z[i]) > 1e-9 {
				continue outer
			}
		}
		return true
	}
	return false
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

// newMasterState compiles the master over the initial column pool.
func newMasterState(pr *Problem, columns []cgColumn, rho float64, lpOpts lp.Options) (*masterState, error) {
	k := pr.Part.K()
	ms := &masterState{k: k}
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
	for _, c := range columns {
		prob.AddColumn(c.cost, ms.colEntries(c))
	}
	sv, err := lp.NewIPMSolver(prob, lpOpts)
	if err != nil {
		return nil, err
	}
	ms.sv = sv
	return ms, nil
}

// colEntries renders a column's constraint entries (unit rows it touches
// plus its convexity row) into the shared scratch buffer.
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
// weights λ, the duals π (unit rows) and μ (convexity rows), and the
// total mass on stabilization slacks. The returned slices alias the
// solver's solution and are valid until the next solve.
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
func (ms *masterState) solve(ctx context.Context) (obj float64, lambda, pi, mu []float64, slackUse float64, err error) {
	ms.sv.SetContext(ctx)
	sol, err := ms.sv.Solve()
	if err != nil {
		return 0, nil, nil, nil, 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, nil, nil, nil, 0, fmt.Errorf("master LP (%d rows, %d cols) ended %v after %d IPM iterations",
			2*ms.k, ms.sv.NumVars(), sol.Status, sol.Iterations)
	}
	for s := 0; s < 2*ms.k; s++ {
		slackUse += sol.X[s]
	}
	return sol.Objective, sol.X[2*ms.k:], sol.Duals[:ms.k], sol.Duals[ms.k : 2*ms.k], slackUse, nil
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
// Λ_l; a dual solve that does not end optimal, or a column outside Λ_l,
// is a pricing error.
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
		pp, err := lp.Prepare(dual, opts.LP)
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
// answer.
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
	sol, err := dual.SolveFrom(p.dualBases[l])
	if err != nil {
		return 0, cgColumn{}, err
	}
	if sol.Status != lp.Optimal {
		return 0, cgColumn{}, fmt.Errorf("pricing dual LP ended %v", sol.Status)
	}
	p.dualBases[l] = dual.Basis(p.dualBases[l])
	z := make([]float64, k)
	for i := 0; i < k; i++ {
		z[i] = clamp01(sol.Duals[i])
	}
	if !p.feasible(z) {
		return 0, cgColumn{}, fmt.Errorf("recovered pricing column lies outside Λ_%d", l)
	}
	col := cgColumn{l: l, z: z, cost: p.pr.columnCost(l, z)}
	return -sol.Objective, col, nil // min wᵀz = −min bᵀu
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
