package lp

import (
	"context"
	"math"
)

// FaultSiteIPM is the fault-injection site visited once per
// IPMSolver.Solve, before any factorisation work (see
// internal/faultinject).
const FaultSiteIPM = "lp/ipm"

// ipm holds the standard-form data min c·x s.t. Ax = b, x ≥ 0 of an
// equality-row problem, solved by an infeasible-start Mehrotra
// predictor-corrector primal-dual interior-point method. Rows enter
// as given, neither sign-flipped nor scaled: on the one shape it
// solves, the column-generation master, unit rows carry the ±1 slacks
// plus column entries in [0, 1], convexity rows carry 1s and every
// right-hand side is 1, so every row's equilibration factor is 1 and
// no sign flips. Every column is a caller variable.
type ipm struct {
	// ctx, when non-nil, is polled every Newton iteration
	// (IPMSolver.SetContext).
	ctx context.Context

	m, n int
	mat  csc // A by column, pooled CSC storage
	b    []float64
	c    []float64
}

// newIPM compiles p, whose rows must all be EQ.
func newIPM(p *Problem) *ipm {
	ip := &ipm{m: len(p.constraints), n: p.numVars, b: make([]float64, len(p.constraints))}
	for i, c := range p.constraints {
		ip.b[i] = c.RHS
	}
	ip.mat = newCSCBuilder(p.constraints, p.numVars, 0, nil)
	ip.c = append([]float64(nil), p.objective...)
	return ip
}

// ipmWorkspace holds every vector and matrix the Newton loop touches,
// preallocated once and reused across re-solves of a persistent
// instance. ipm.fit resizes it after columns are appended.
type ipmWorkspace struct {
	// m-sized
	rp, dy, dyc, rhs, acceptY []float64
	// n-sized
	rd, dx, ds, dxc, dsc, d, rc, acceptX []float64
	// m×m
	mmat, chol []float64
	// formNormal scratch: the dense same-span panel plus its transposed
	// fill buffer (grown on demand).
	panel, panelT []float64

	// Row-major mirror of the constraint matrix for the Aᵀv and Av
	// sweeps. It and the run classification are cached per matrix shape
	// (at.n, at.nnz): within one solve the matrix is static, so both are
	// built once, not once per Newton iteration.
	at csr
	columnClass
	// shared marks at's arrays and the run lengths as a FrozenIPM's,
	// read-only: compile rebuilds them into buffers of this workspace's
	// own rather than in place.
	shared bool
}

// columnClass is the run classification formNormal reads: each column's
// leading-run length and the panel span elected among them.
type columnClass struct {
	runs            []int32
	panelR0, panelL int32
	groupN          int
	usePanel        bool
}

// fit sizes ws for the current matrix and brings its shape-keyed caches
// up to date.
func (ip *ipm) fit(ws *ipmWorkspace) {
	ws.grow(ip.m, ip.n)
	ip.compile(ws)
}

// compile rebuilds ws's row-major mirror and run classification when
// columns were appended since they were built.
func (ip *ipm) compile(ws *ipmWorkspace) {
	if ws.at.n == ip.n && ws.at.nnz == ip.mat.nnz() {
		return
	}
	if ws.shared {
		ws.at, ws.runs, ws.shared = csr{}, nil, false
	}
	ws.at.build(&ip.mat, ip.m)
	ip.classifyColumns(ws)
}

func (ws *ipmWorkspace) grow(m, n int) {
	for _, p := range []*[]float64{&ws.rp, &ws.dy, &ws.dyc, &ws.rhs, &ws.acceptY} {
		if cap(*p) < m {
			*p = make([]float64, m)
		}
		*p = (*p)[:m]
	}
	for _, p := range []*[]float64{&ws.rd, &ws.dx, &ws.ds, &ws.dxc, &ws.dsc, &ws.d, &ws.rc, &ws.acceptX} {
		if cap(*p) < n {
			// Headroom for a column-generation master that keeps growing.
			*p = make([]float64, n, n+n/2+16)
		}
		*p = (*p)[:n]
	}
	if cap(ws.mmat) < m*m {
		ws.mmat = make([]float64, m*m)
		ws.chol = make([]float64, m*m)
	}
	ws.mmat = ws.mmat[:m*m]
	ws.chol = ws.chol[:m*m]
}

// coldRun solves from Mehrotra's least-squares start, or reports
// IterationLimit when that point cannot be formed. x, y and s are
// overwritten.
func (ip *ipm) coldRun(x, y, s []float64, ws *ipmWorkspace) (*Solution, error) {
	if !ip.mehrotraStart(x, y, s, ws) {
		return &Solution{Status: IterationLimit}, nil
	}
	return ip.run(x, y, s, ws)
}

// mehrotraStart fills (x, y, s) with Mehrotra's least-squares starting
// point: x̃ = Aᵀ(AAᵀ)⁻¹b (the least-norm primal), ỹ = (AAᵀ)⁻¹Ac with
// s̃ = c − Aᵀỹ (the least-squares dual), both shifted into the interior
// of the positive orthant. Unlike a uniform start, whose magnitude
// would have to grow with ‖b‖ and ‖c‖ (and so with the stabilization
// penalty ρ), this point already satisfies Ax = b up to rounding, which
// saves a third or more of the Newton iterations on the CG master.
// Reports false when the Gram matrix cannot be factored or the shifted
// point is not strictly interior.
func (ip *ipm) mehrotraStart(x, y, s []float64, ws *ipmWorkspace) bool {
	m, n := ip.m, ip.n
	d := ws.d
	for j := 0; j < n; j++ {
		d[j] = 1
	}
	ip.formNormal(d, ws.mmat, ws)
	reg := 1e-10 * (1 + traceMax(ws.mmat, m))
	for i := 0; i < m; i++ {
		ws.mmat[i*m+i] += reg
	}
	if !choleskyInto(ws.mmat, ws.chol, m) {
		return false
	}

	cholSolve(ws.chol, m, ip.b, ws.dy)
	copy(x, ws.at.mulTInto(ws.dy))
	rhs := ws.rhs
	for i := 0; i < m; i++ {
		rhs[i] = 0
	}
	ws.at.mulAddInto(rhs, ip.c)
	cholSolve(ws.chol, m, rhs, y)
	aty := ws.at.mulTInto(y)
	for j := 0; j < n; j++ {
		s[j] = ip.c[j] - aty[j]
	}

	// Shift both iterates strictly inside the orthant: first past their
	// most negative coordinate, then by half the resulting average
	// complementarity so neither side starts on the boundary.
	minX, minS := math.Inf(1), math.Inf(1)
	for j := 0; j < n; j++ {
		if x[j] < minX {
			minX = x[j]
		}
		if s[j] < minS {
			minS = s[j]
		}
	}
	dx := math.Max(-1.5*minX, 0)
	ds := math.Max(-1.5*minS, 0)
	xs, sumX, sumS := 0.0, 0.0, 0.0
	for j := 0; j < n; j++ {
		xs += (x[j] + dx) * (s[j] + ds)
		sumX += x[j] + dx
		sumS += s[j] + ds
	}
	if !(xs > 0) || !(sumX > 0) || !(sumS > 0) {
		return false
	}
	dxh := dx + 0.5*xs/sumS
	dsh := ds + 0.5*xs/sumX
	ok := true
	for j := 0; j < n; j++ {
		x[j] += dxh
		s[j] += dsh
		if !(x[j] > 0) || !(s[j] > 0) || math.IsInf(x[j], 0) || math.IsInf(s[j], 0) {
			ok = false
		}
	}
	for i := 0; i < m; i++ {
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			ok = false
		}
	}
	return ok
}

// run iterates the predictor-corrector loop from the given starting
// point, which it mutates in place: at return, (x, y, s) hold the final
// iterate — a warm-startable point for a subsequent re-solve.
func (ip *ipm) run(x, y, s []float64, ws *ipmWorkspace) (*Solution, error) {
	m, n := ip.m, ip.n
	bn, cn := norm(ip.b), norm(ip.c)

	rp := ws.rp
	rd := ws.rd
	dx := ws.dx
	ds := ws.ds
	dy := ws.dy
	dxc := ws.dxc
	dsc := ws.dsc
	dyc := ws.dyc
	d := ws.d
	rhs := ws.rhs
	mmat := ws.mmat
	rc := ws.rc

	maxIter := 200
	tol := 1e-9
	// Near the optimum (and on nearly rank-deficient rows) the
	// regularised normal equations become too ill-conditioned to push
	// the residuals further — they can even grow while the gap
	// underflows. The best iterate seen is therefore kept and accepted
	// under slightly relaxed thresholds when exact tolerance is out of
	// reach.
	const (
		pAccept   = 1e-5
		dAccept   = 1e-6
		gapAccept = 1e-7
	)
	bestScore := math.Inf(1)
	acceptX := ws.acceptX
	acceptY := ws.acceptY
	acceptScore := math.Inf(1)
	acceptOK := false
	stalled := 0
	lastIter := 0

	for iter := 0; iter < maxIter; iter++ {
		lastIter = iter
		// A Newton iteration costs a dense Cholesky (O(m³)); polling the
		// context here bounds abandonment latency to one factorisation.
		if ip.ctx != nil {
			if err := ip.ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Residuals.
		ip.residuals(x, y, s, rp, rd, ws)
		mu := dot(x, s) / float64(n)
		pInf := norm(rp) / (1 + bn)
		dInf := norm(rd) / (1 + cn)
		gap := mu / (1 + math.Abs(dot(ip.c, x)))
		if pInf < tol && dInf < tol && gap < tol {
			return ip.finish(x, y, iter), nil
		}
		score := pInf + dInf + gap
		if math.IsNaN(score) {
			break
		}
		if score < bestScore {
			bestScore = score
			stalled = 0
		} else {
			stalled++
		}
		// Acceptable iterates are snapshotted independently of the raw
		// score: the lowest-score iterate is not necessarily one that
		// meets every threshold.
		if pInf < pAccept && dInf < dAccept && gap < gapAccept && score < acceptScore {
			acceptScore = score
			copy(acceptX, x)
			copy(acceptY, y)
			acceptOK = true
		}
		// Stop when the iterates no longer improve: with an acceptable
		// incumbent almost immediately, otherwise after a longer grace
		// period (residuals can plateau for a stretch mid-run).
		if (acceptOK && stalled > 3) || stalled > 30 || (mu < 1e-18 && acceptOK) {
			break
		}

		// Normal-equations matrix M = A D Aᵀ + reg·I with D = X/S.
		for j := 0; j < n; j++ {
			d[j] = x[j] / s[j]
		}
		ip.formNormal(d, mmat, ws)
		reg := 1e-12 * (1 + traceMax(mmat, m))
		for i := 0; i < m; i++ {
			mmat[i*m+i] += reg
		}
		chol := ws.chol
		if !choleskyInto(mmat, chol, m) {
			return &Solution{Status: IterationLimit, Iterations: iter}, nil
		}

		// Affine-scaling (predictor) direction: rc = −x∘s.
		for j := 0; j < n; j++ {
			rc[j] = -x[j] * s[j]
		}
		ip.solveNewton(chol, d, rp, rd, rc, x, s, dy, dx, ds, rhs, ws)

		aP := math.Min(1, maxStep(x, dx))
		aD := math.Min(1, maxStep(s, ds))
		muAff := 0.0
		for j := 0; j < n; j++ {
			muAff += (x[j] + aP*dx[j]) * (s[j] + aD*ds[j])
		}
		muAff /= float64(n)
		sigma := math.Pow(muAff/mu, 3)
		if sigma > 1 {
			sigma = 1
		}

		// Corrector direction: rc = σμe − x∘s − Δx_aff∘Δs_aff.
		for j := 0; j < n; j++ {
			rc[j] = sigma*mu - x[j]*s[j] - dx[j]*ds[j]
		}
		ip.solveNewton(chol, d, rp, rd, rc, x, s, dyc, dxc, dsc, rhs, ws)

		aP = 0.995 * maxStep(x, dxc)
		aD = 0.995 * maxStep(s, dsc)
		if aP > 1 {
			aP = 1
		}
		if aD > 1 {
			aD = 1
		}
		for j := 0; j < n; j++ {
			x[j] += aP * dxc[j]
			s[j] += aD * dsc[j]
		}
		for i := 0; i < m; i++ {
			y[i] += aD * dyc[i]
		}
	}
	if acceptOK {
		return ip.finish(acceptX, acceptY, lastIter), nil
	}
	return &Solution{Status: IterationLimit, Iterations: lastIter + 1}, nil
}

// residuals computes rp = b − Ax and rd = c − Aᵀy − s. Ax is taken as
// A·(−x) added onto b, with −x staged in ws.dx (dead until the next
// solveNewton): negation is exact, so rp is bit-identical to
// subtracting each product.
func (ip *ipm) residuals(x, y, s, rp, rd []float64, ws *ipmWorkspace) {
	negX := ws.dx
	for j, v := range x {
		negX[j] = -v
	}
	copy(rp, ip.b)
	ws.at.mulAddInto(rp, negX)
	aty := ws.at.mulTInto(y)
	for j := 0; j < ip.n; j++ {
		rd[j] = ip.c[j] - s[j] - aty[j]
	}
}

// classifyColumns computes each column's leading-run length and elects
// the modal span (weighted by its L² SYRK work) among a handful of
// candidates, caching the result in ws (see fit). The panel buffers are
// sized here so formNormal's hot path only fills.
func (ip *ipm) classifyColumns(ws *ipmWorkspace) {
	colPtr, colRows := ip.mat.colPtr, ip.mat.rows
	if cap(ws.runs) < ip.n {
		// Headroom for a column-generation master that keeps growing.
		ws.runs = make([]int32, ip.n, ip.n+ip.n/2+16)
	}
	ws.runs = ws.runs[:ip.n]
	runs := ws.runs
	type span struct {
		r0, l int32
		work  int64
	}
	var cands [8]span
	nc := 0
	for j := 0; j < ip.n; j++ {
		lo, hi := colPtr[j], colPtr[j+1]
		if lo == hi {
			runs[j] = 0
			continue
		}
		rows := colRows[lo:hi]
		run := int32(1)
		for int(run) < len(rows) && rows[run] == rows[run-1]+1 {
			run++
		}
		runs[j] = run
		if run < 16 {
			continue
		}
		r0 := rows[0]
		for c := 0; c < nc; c++ {
			if cands[c].r0 == r0 && cands[c].l == run {
				cands[c].work += int64(run) * int64(run)
				r0 = -1
				break
			}
		}
		if r0 >= 0 && nc < len(cands) {
			cands[nc] = span{r0: r0, l: run, work: int64(run) * int64(run)}
			nc++
		}
	}
	best := -1
	for c := 0; c < nc; c++ {
		if best < 0 || cands[c].work > cands[best].work {
			best = c
		}
	}

	ws.usePanel = false
	ws.groupN = 0
	if best >= 0 && cands[best].work >= 32*int64(cands[best].l)*int64(cands[best].l) {
		// At least 32 columns share the span: the SYRK pays for itself.
		ws.panelR0, ws.panelL = cands[best].r0, cands[best].l
		ws.usePanel = true
		for j := 0; j < ip.n; j++ {
			if runs[j] == ws.panelL && colRows[colPtr[j]] == ws.panelR0 {
				ws.groupN++
			}
		}
		need := int(ws.panelL) * ws.groupN
		if cap(ws.panel) < need {
			ws.panel = make([]float64, need, need+need/2)
			ws.panelT = make([]float64, need, need+need/2)
		}
	}
}

// formNormal fills mmat = A diag(d) Aᵀ (dense, symmetric). Each column's
// row indices are ascending, so only the upper triangle is accumulated —
// halving the flops of the hottest IPM kernel — and mirrored at the end.
//
// Geo-I master columns are dense over a contiguous run of unit rows
// (rows 0..k−1) plus one scattered convexity entry — measured ~97% of
// all stored entries live in such leading runs. Columns sharing the
// modal run span are therefore gathered into a dense panel W with
// W[i][g] = √d_g · v_g[r0+i], and the span's diagonal block A D Aᵀ
// restricted to [r0, r0+L) is computed as the rank-G update W·Wᵀ by a
// cache-blocked SYRK with four independent accumulator chains — turning
// the hottest IPM kernel from a latency-bound read-modify-write stream
// into a throughput-bound stack of dot products. Tails and off-span
// columns take the scalar contiguous/scattered path.
func (ip *ipm) formNormal(d []float64, mmat []float64, ws *ipmWorkspace) {
	m := ip.m
	for i := range mmat {
		mmat[i] = 0
	}
	colPtr, colRows, colVals := ip.mat.colPtr, ip.mat.rows, ip.mat.vals

	runs := ws.runs
	usePanel, panelR0, panelL := ws.usePanel, ws.panelR0, ws.panelL
	groupN := ws.groupN
	var panel, panelT []float64
	if usePanel {
		need := int(panelL) * groupN
		panel, panelT = ws.panel[:need], ws.panelT[:need]
	}

	// Fill the panel with √d-scaled run segments and run the scalar
	// path for everything else — off-span columns entirely, panel
	// columns only for their tails.
	g := 0
	for j := 0; j < ip.n; j++ {
		lo, hi := colPtr[j], colPtr[j+1]
		if lo == hi {
			continue
		}
		rows, vals := colRows[lo:hi], colVals[lo:hi]
		dj := d[j]
		run := int(runs[j])
		if usePanel && runs[j] == panelL && rows[0] == panelR0 {
			// Fill the member-major buffer contiguously; the strided
			// row-major layout the SYRK wants is produced by one blocked
			// transpose below instead of G·L scattered stores here.
			sd := math.Sqrt(dj)
			dst := panelT[g*run : g*run+run]
			src := vals[:run]
			for t := range dst {
				dst[t] = sd * src[t]
			}
			g++
			// Tail entries still need their run×tail and tail×tail
			// products accumulated here: one pass per tail entry, not
			// one per column row.
			for b := run; b < len(rows); b++ {
				rb := int(rows[b])
				vb := vals[b]
				for a := 0; a <= b; a++ {
					mmat[int(rows[a])*m+rb] += (dj * vals[a]) * vb
				}
			}
			continue
		}
		for a, ra := range rows {
			va := dj * vals[a]
			base := int(ra) * m
			bStart := a
			if a < run {
				// Contiguous segment [a, run): dst and src are plain
				// slices, so the compiler elides bounds checks and the
				// writes stream through one cache line after another.
				dst := mmat[base+int(ra) : base+int(ra)+(run-a)]
				src := vals[a:run]
				for t := range dst {
					dst[t] += va * src[t]
				}
				bStart = run
			}
			for b := bStart; b < len(rows); b++ {
				mmat[base+int(rows[b])] += va * vals[b]
			}
		}
	}
	if usePanel {
		transposeInto(panel, panelT, int(panelL), groupN)
		syrkUpperInto(syrkDot2x4, panel, int(panelL), groupN, mmat, int(panelR0), m)
	}

	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			mmat[j*m+i] = mmat[i*m+j]
		}
	}
}

// transposeInto converts the member-major panel fill (G×L, each group
// member's run contiguous) into the row-major L×G layout the SYRK
// streams over, in cache-friendly tiles so neither side pays a miss
// per element.
func transposeInto(dst, src []float64, l, g int) {
	const tile = 32
	for t0 := 0; t0 < l; t0 += tile {
		t1 := t0 + tile
		if t1 > l {
			t1 = l
		}
		for g0 := 0; g0 < g; g0 += tile {
			g1 := g0 + tile
			if g1 > g {
				g1 = g
			}
			for gg := g0; gg < g1; gg++ {
				row := src[gg*l : gg*l+l]
				for t := t0; t < t1; t++ {
					dst[t*g+gg] = row[t]
				}
			}
		}
	}
}

// solveNewton computes the (dx, dy, ds) Newton direction for the given
// complementarity right-hand side rc, reusing the Cholesky factor.
func (ip *ipm) solveNewton(chol []float64, d, rp, rd, rc, x, s, dy, dx, ds, rhs []float64, ws *ipmWorkspace) {
	m, n := ip.m, ip.n
	// rhs = rp + A·(d∘rd − rc/s), as a row gather off the CSR mirror.
	// dx is output-only until the final loop below, so it doubles as
	// the weight scratch.
	copy(rhs, rp)
	w := dx
	for j := 0; j < n; j++ {
		w[j] = d[j]*rd[j] - rc[j]/s[j]
	}
	ws.at.mulAddInto(rhs, w)
	cholSolve(chol, m, rhs, dy)
	// dx = d∘(Aᵀdy − rd) + rc/s ; ds = (rc − s∘dx)/x
	aty := ws.at.mulTInto(dy)
	for j := 0; j < n; j++ {
		dx[j] = d[j]*(aty[j]-rd[j]) + rc[j]/s[j]
		ds[j] = (rc[j] - s[j]*dx[j]) / x[j]
	}
}

// finish copies the interior solution out, clamping x at zero.
func (ip *ipm) finish(x, y []float64, iters int) *Solution {
	sol := &Solution{Status: Optimal, Iterations: iters}
	sol.X = make([]float64, ip.n)
	obj := 0.0
	for j := 0; j < ip.n; j++ {
		v := x[j]
		if v < 0 {
			v = 0
		}
		sol.X[j] = v
		obj += ip.c[j] * v
	}
	sol.Objective = obj
	sol.Duals = append([]float64(nil), y...)
	return sol
}

func dot(a, b []float64) float64 {
	v := 0.0
	for i := range a {
		v += a[i] * b[i]
	}
	return v
}

func norm(a []float64) float64 {
	v := 0.0
	for _, x := range a {
		v += x * x
	}
	return math.Sqrt(v)
}

// maxStep returns the largest α ∈ (0, 1e20] with v + α·dv ≥ 0.
func maxStep(v, dv []float64) float64 {
	a := math.Inf(1)
	for j := range v {
		if dv[j] < 0 {
			if r := -v[j] / dv[j]; r < a {
				a = r
			}
		}
	}
	if math.IsInf(a, 1) {
		return 1
	}
	return a
}

func traceMax(mmat []float64, m int) float64 {
	worst := 0.0
	for i := 0; i < m; i++ {
		if v := math.Abs(mmat[i*m+i]); v > worst {
			worst = v
		}
	}
	return worst
}

// choleskyInto factors a symmetric positive-definite matrix (row-major)
// into the caller-provided lower-triangular buffer l, reporting false if
// the factorisation breaks down.
//
// Entry (i, j) is (a_ij − l_i[:j]·l_j[:j]) / l_jj, or the square root of
// that difference on the diagonal, with the dot product summed in four
// accumulator chains (the single-chain dot is latency bound and this
// factorisation runs once per Newton step): chain c takes the terms
// k ≡ c (mod 4) below the last multiple of four, the tail goes into
// chain 0, and the chains combine as (s0+s1)+(s2+s3). Rows are factored
// two at a time, so each load of a pivot row l_j serves both rows'
// products; every entry keeps its own chains, so the bits are those of
// a row-at-a-time factorisation.
func choleskyInto(a, l []float64, m int) bool {
	// Only the lower triangle (and diagonal) is ever written or read —
	// cholSolve's backward pass walks column i of the lower triangle —
	// so the upper triangle is left untouched rather than zeroed.
	i := 0
	for ; i+1 < m; i += 2 {
		l0 := l[i*m : i*m+i+1]
		l1 := l[(i+1)*m : (i+1)*m+i+2]
		a0 := a[i*m : i*m+i+1]
		a1 := a[(i+1)*m : (i+1)*m+i+2]
		for j := 0; j < i; j++ {
			lj := l[j*m : j*m+j+1]
			// Resliced operands shrink as the chains advance, so the
			// compiler proves every index in range.
			p, x0, x1 := lj[:j], l0[:j], l1[:j]
			var s0, s1, s2, s3, t0, t1, t2, t3 float64
			for len(p) >= 4 && len(x0) >= 4 && len(x1) >= 4 {
				s0 += x0[0] * p[0]
				s1 += x0[1] * p[1]
				s2 += x0[2] * p[2]
				s3 += x0[3] * p[3]
				t0 += x1[0] * p[0]
				t1 += x1[1] * p[1]
				t2 += x1[2] * p[2]
				t3 += x1[3] * p[3]
				p, x0, x1 = p[4:], x0[4:], x1[4:]
			}
			x0, x1 = x0[:len(p)], x1[:len(p)]
			for k, pk := range p {
				s0 += x0[k] * pk
				t0 += x1[k] * pk
			}
			l0[j] = (a0[j] - ((s0 + s1) + (s2 + s3))) / lj[j]
			l1[j] = (a1[j] - ((t0 + t1) + (t2 + t3))) / lj[j]
		}
		sum := a0[i] - dot4(l0[:i], l0[:i])
		if sum <= 0 {
			return false
		}
		l0[i] = math.Sqrt(sum)
		l1[i] = (a1[i] - dot4(l1[:i], l0[:i])) / l0[i]
		sum = a1[i+1] - dot4(l1[:i+1], l1[:i+1])
		if sum <= 0 {
			return false
		}
		l1[i+1] = math.Sqrt(sum)
	}
	if i < m {
		li := l[i*m : i*m+i+1]
		for j := 0; j <= i; j++ {
			lj := l[j*m : j*m+j+1]
			sum := a[i*m+j] - dot4(li[:j], lj[:j])
			if i == j {
				if sum <= 0 {
					return false
				}
				li[i] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return true
}

// dot4 is x·y in choleskyInto's four chains: chain c takes the terms
// k ≡ c (mod 4) below the last multiple of four, the tail goes into
// chain 0, and the chains combine as (s0+s1)+(s2+s3).
func dot4(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(x) >= 4 && len(y) >= 4 {
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
		x, y = x[4:], y[4:]
	}
	y = y[:len(x)]
	for k, xk := range x {
		s0 += xk * y[k]
	}
	return (s0 + s1) + (s2 + s3)
}

// cholSolve solves L Lᵀ out = rhs.
func cholSolve(l []float64, m int, rhs, out []float64) {
	// Forward substitution into out.
	for i := 0; i < m; i++ {
		v := rhs[i]
		for k := 0; k < i; k++ {
			v -= l[i*m+k] * out[k]
		}
		out[i] = v / l[i*m+i]
	}
	// Backward substitution in place.
	for i := m - 1; i >= 0; i-- {
		v := out[i]
		for k := i + 1; k < m; k++ {
			v -= l[k*m+i] * out[k]
		}
		out[i] = v / l[i*m+i]
	}
}
