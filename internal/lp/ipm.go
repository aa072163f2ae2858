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
//
// The Newton systems are solved in the Dantzig–Wolfe block form of
// the normal equations (formNormal): the trailing rows that hold at
// most one entry of any column, the master's K convexity rows, form a
// diagonal block that is eliminated, so each iteration factors the
// Schur complement over the leading rows (K×K on the master) instead
// of the whole m×m matrix.
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

// ipmForm is everything a solve derives from the matrix alone: the
// block split of the normal equations, each column's run, the dense
// panel and the mirror of the entries the panel does not hold. compile
// builds it once per matrix shape; a FrozenIPM shares it read-only.
type ipmForm struct {
	n, nnz int // shape of the matrix at the last compile

	// r2 is the first row of the diagonal block: 1 + the largest
	// second-to-last row index of any column, so rows [r2, m) hold at
	// most one entry of each column, its last.
	r2 int
	// runs[j] is the length of column j's leading run of consecutive
	// rows below r2.
	runs []int32
	// The panel: the columns whose run is the elected span
	// [panelR0, panelR0+panelL), ascending in members, keep that run in
	// the row-major panelL×len(members) panel.
	panelR0, panelL int32
	members         []int32
	panel           []float64
	// rem mirrors every entry the panel does not hold: slacks, columns
	// off the span, and each member's entries after its run.
	rem csr
}

// ipmWorkspace holds every vector and matrix the Newton loop touches,
// preallocated once and reused across re-solves of a persistent
// instance. ipm.fit resizes it after columns are appended.
type ipmWorkspace struct {
	// m-sized
	rp, dy, dyc, rhs, acceptY []float64
	// n-sized; acc takes Aᵀv
	rd, dx, ds, dxc, dsc, d, rc, acceptX, acc []float64
	// The block normal equations over r2 leading and nb = m − r2
	// diagonal-block rows: mmat holds M11 (r2×r2, upper triangle), then
	// the Schur complement S, and chol S's Cholesky factor; m21 holds
	// M21 (nb×r2), then Wᵀ = D2^−½·M21, and w its transpose for the
	// SYRK; d2 is the block's diagonal and d2r its inverse square roots.
	mmat, chol, m21, w []float64
	d2, d2r            []float64
	// The √d-scaled panel (panelL×G) and a G-sized gather vector.
	scaled, pg []float64

	form ipmForm
	// shared marks form's arrays as a FrozenIPM's, read-only: compile
	// rebuilds them into buffers of this workspace's own rather than in
	// place.
	shared bool
}

// fit brings ws's compiled form up to date and sizes its buffers.
func (ip *ipm) fit(ws *ipmWorkspace) {
	ip.compile(ws)
	ws.grow(ip.m, ip.n)
}

// compile rebuilds ws's compiled form when columns were appended since
// it was built.
func (ip *ipm) compile(ws *ipmWorkspace) {
	f := &ws.form
	if f.n == ip.n && f.nnz == ip.mat.nnz() {
		return
	}
	if ws.shared {
		ws.form, ws.shared = ipmForm{}, false
	}
	f.r2 = blockStart(&ip.mat)
	ip.classifyColumns(f)
	f.rem.build(&ip.mat, ip.m, f.members, int(f.panelL))
	f.n, f.nnz = ip.n, ip.mat.nnz()
}

// blockStart returns 1 + the largest second-to-last row index of any
// column of a (0 when no column has two entries).
func blockStart(a *csc) int {
	r2 := 0
	for j := 0; j < a.numCols(); j++ {
		if hi := a.colPtr[j+1]; hi-a.colPtr[j] >= 2 {
			r2 = max(r2, int(a.rows[hi-2])+1)
		}
	}
	return r2
}

func (ws *ipmWorkspace) grow(m, n int) {
	for _, p := range []*[]float64{&ws.rp, &ws.dy, &ws.dyc, &ws.rhs, &ws.acceptY} {
		if cap(*p) < m {
			*p = make([]float64, m)
		}
		*p = (*p)[:m]
	}
	for _, p := range []*[]float64{&ws.rd, &ws.dx, &ws.ds, &ws.dxc, &ws.dsc, &ws.d, &ws.rc, &ws.acceptX, &ws.acc} {
		if cap(*p) < n {
			// Headroom for a column-generation master that keeps growing.
			*p = make([]float64, n, n+n/2+16)
		}
		*p = (*p)[:n]
	}
	f := &ws.form
	r2, nb := f.r2, m-f.r2
	l, g := int(f.panelL), len(f.members)
	for _, b := range []struct {
		p    *[]float64
		need int
	}{
		{&ws.mmat, r2 * r2}, {&ws.chol, r2 * r2}, {&ws.m21, nb * r2}, {&ws.w, nb * r2},
		{&ws.d2, nb}, {&ws.d2r, nb}, {&ws.scaled, l * g}, {&ws.pg, g},
	} {
		if cap(*b.p) < b.need {
			*b.p = make([]float64, b.need, b.need+b.need/2)
		}
		*b.p = (*b.p)[:b.need]
	}
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
	ip.formNormal(d, ws)
	if !ip.factorNormal(1e-10, ws) {
		return false
	}

	rhs := ws.rhs
	copy(rhs, ip.b)
	ip.solveNormal(rhs, ws.dy, ws)
	copy(x, ip.mulT(ws.dy, ws))
	for i := 0; i < m; i++ {
		rhs[i] = 0
	}
	ip.mulAdd(rhs, ip.c, ws)
	ip.solveNormal(rhs, y, ws)
	aty := ip.mulT(y, ws)
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
		// A Newton iteration costs a dense Cholesky (O(r2³)); polling the
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
		ip.formNormal(d, ws)
		if !ip.factorNormal(1e-12, ws) {
			return &Solution{Status: IterationLimit, Iterations: iter}, nil
		}

		// Affine-scaling (predictor) direction: rc = −x∘s.
		for j := 0; j < n; j++ {
			rc[j] = -x[j] * s[j]
		}
		ip.solveNewton(d, rp, rd, rc, x, s, dy, dx, ds, rhs, ws)

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
		ip.solveNewton(d, rp, rd, rc, x, s, dyc, dxc, dsc, rhs, ws)

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
	ip.mulAdd(rp, negX, ws)
	aty := ip.mulT(y, ws)
	for j := 0; j < ip.n; j++ {
		rd[j] = ip.c[j] - s[j] - aty[j]
	}
}

// mulT returns Aᵀv in ws.acc, valid until the next call. The panel is
// swept first, four rows per pass with each column's products added in
// row order, then the remainder mirror, whose entries of a panel
// column all lie below its run: every column's products arrive in
// ascending row order, as a full mirror's sweep adds them, so the
// result is that sweep's bit for bit.
func (ip *ipm) mulT(v []float64, ws *ipmWorkspace) []float64 {
	acc := ws.acc
	clear(acc)
	f := &ws.form
	if g := len(f.members); g > 0 {
		pg := ws.pg[:g]
		clear(pg)
		r0, l := int(f.panelR0), int(f.panelL)
		panelMulT(pg, f.panel, v[r0:r0+l])
		for k, j := range f.members {
			acc[j] = pg[k]
		}
	}
	f.rem.mulTAddInto(acc, v)
	return acc
}

// panelMulT adds Pᵀv onto acc for the row-major len(v)×len(acc) panel
// P, four rows per pass.
func panelMulT(acc, p, v []float64) {
	g := len(acc)
	t := 0
	for ; t+3 < len(v); t += 4 {
		v0, v1, v2, v3 := v[t], v[t+1], v[t+2], v[t+3]
		p0 := p[t*g : t*g+g]
		p1 := p[(t+1)*g : (t+1)*g+g]
		p2 := p[(t+2)*g : (t+2)*g+g]
		p3 := p[(t+3)*g : (t+3)*g+g]
		for k := range acc {
			a := acc[k]
			a += v0 * p0[k]
			a += v1 * p1[k]
			a += v2 * p2[k]
			a += v3 * p3[k]
			acc[k] = a
		}
	}
	for ; t < len(v); t++ {
		vt, pt := v[t], p[t*g:t*g+g]
		for k := range acc {
			acc[k] += vt * pt[k]
		}
	}
}

// mulAdd adds A·w onto dst: a four-chain dot of each panel row with the
// members' gathered weights, then the remainder mirror.
func (ip *ipm) mulAdd(dst, w []float64, ws *ipmWorkspace) {
	f := &ws.form
	if g := len(f.members); g > 0 {
		wg := ws.pg[:g]
		for k, j := range f.members {
			wg[k] = w[j]
		}
		r0, l := int(f.panelR0), int(f.panelL)
		t := 0
		for ; t+1 < l; t += 2 {
			s0, s1 := dot4x2(f.panel[t*g:][:g], f.panel[(t+1)*g:][:g], wg)
			dst[r0+t] += s0
			dst[r0+t+1] += s1
		}
		if t < l {
			dst[r0+t] += dot4(f.panel[t*g:][:g], wg)
		}
	}
	f.rem.mulAddInto(dst, w)
}

// classifyColumns computes each column's leading-run length below r2,
// elects the modal span (weighted by its L² SYRK work) among a handful
// of candidates, and copies the runs of the columns on it into the
// panel.
func (ip *ipm) classifyColumns(f *ipmForm) {
	colPtr, colRows, colVals := ip.mat.colPtr, ip.mat.rows, ip.mat.vals
	if cap(f.runs) < ip.n {
		// Headroom for a column-generation master that keeps growing.
		f.runs = make([]int32, ip.n, ip.n+ip.n/2+16)
	}
	f.runs = f.runs[:ip.n]
	runs := f.runs
	r2 := int32(f.r2)
	type span struct {
		r0, l int32
		work  int64
	}
	var cands [8]span
	nc := 0
	for j := 0; j < ip.n; j++ {
		rows := colRows[colPtr[j]:colPtr[j+1]]
		if len(rows) == 0 || rows[0] >= r2 {
			runs[j] = 0
			continue
		}
		run := int32(1)
		for int(run) < len(rows) && rows[run] == rows[run-1]+1 && rows[run] < r2 {
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

	f.members = f.members[:0]
	f.panelR0, f.panelL = 0, 0
	if best < 0 || cands[best].work < 32*int64(cands[best].l)*int64(cands[best].l) {
		f.panel = f.panel[:0]
		return
	}
	// At least 32 columns share the span: the SYRK pays for itself.
	f.panelR0, f.panelL = cands[best].r0, cands[best].l
	for j := 0; j < ip.n; j++ {
		if runs[j] == f.panelL && colRows[colPtr[j]] == f.panelR0 {
			f.members = append(f.members, int32(j))
		}
	}
	l, g := int(f.panelL), len(f.members)
	if need := l * g; cap(f.panel) < need {
		f.panel = make([]float64, need, need+need/2)
	} else {
		f.panel = f.panel[:need]
	}
	for k, j := range f.members {
		run := colVals[colPtr[j] : int(colPtr[j])+l]
		for t, v := range run {
			f.panel[t*g+k] = v
		}
	}
}

// formNormal fills the normal equations M = A diag(d) Aᵀ in block form
// over ws's compiled form: M11, the leading r2×r2 block (upper
// triangle, in ws.mmat); M21, the nb×r2 block of the diagonal-block
// rows (ws.m21); and D2, that block's diagonal (ws.d2). Every column
// has at most one entry in the block rows, its last, so the block is
// diagonal and the column's block-row products land contiguously in
// one row of M21.
//
// Geo-I master columns are dense over a contiguous run of unit rows
// (rows 0..k−1) plus one convexity entry — measured ~97% of all stored
// entries live in such leading runs. The columns sharing the modal run
// span keep that run in the compiled panel, whose rows are scaled here
// by √d into W with W[i][g] = √d_g · v_g[r0+i], and the span's block of
// M11 is computed as the rank-G update W·Wᵀ by a cache-blocked SYRK
// with four independent accumulator chains — turning the hottest IPM
// kernel from a latency-bound read-modify-write stream into a
// throughput-bound stack of dot products. Tails and off-span columns
// take the scalar contiguous/scattered path.
func (ip *ipm) formNormal(d []float64, ws *ipmWorkspace) {
	f := &ws.form
	r2 := f.r2
	mmat, m21, d2 := ws.mmat, ws.m21, ws.d2
	clear(mmat)
	clear(m21)
	clear(d2)
	colPtr, colRows, colVals := ip.mat.colPtr, ip.mat.rows, ip.mat.vals

	g := 0
	for j := 0; j < ip.n; j++ {
		lo, hi := colPtr[j], colPtr[j+1]
		if lo == hi {
			continue
		}
		rows, vals := colRows[lo:hi], colVals[lo:hi]
		dj := d[j]
		// h is the column's entry count below r2; an entry past them is
		// its block-row entry.
		h := len(rows)
		if int(rows[h-1]) >= r2 {
			h--
			vb := vals[h]
			bl := int(rows[h]) - r2
			d2[bl] += (dj * vb) * vb
			rows, vals = rows[:h], vals[:h]
			dst := m21[bl*r2 : bl*r2+r2]
			if run := int(f.runs[j]); run > 0 {
				// The run's rows are consecutive: a plain slice loop.
				src := vals[:run]
				seg := dst[rows[0]:][:len(src)]
				for t, v := range src {
					seg[t] += (dj * v) * vb
				}
			}
			for a := int(f.runs[j]); a < h; a++ {
				dst[rows[a]] += (dj * vals[a]) * vb
			}
		}
		run := int(f.runs[j])
		if g < len(f.members) && int(f.members[g]) == j {
			g++
			// The run is the panel's; tail entries still need their
			// run×tail and tail×tail products accumulated here: one pass
			// per tail entry, not one per column row.
			for b := run; b < h; b++ {
				rb := int(rows[b])
				vb := vals[b]
				for a := 0; a <= b; a++ {
					mmat[int(rows[a])*r2+rb] += (dj * vals[a]) * vb
				}
			}
			continue
		}
		for a, ra := range rows {
			va := dj * vals[a]
			base := int(ra) * r2
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
			for b := bStart; b < h; b++ {
				mmat[base+int(rows[b])] += va * vals[b]
			}
		}
	}
	if gn := len(f.members); gn > 0 {
		sd := ws.pg[:gn]
		for k, j := range f.members {
			sd[k] = math.Sqrt(d[j])
		}
		for t := 0; t < int(f.panelL); t++ {
			src, dst := f.panel[t*gn:][:len(sd)], ws.scaled[t*gn:][:len(sd)]
			for k, s := range sd {
				dst[k] = s * src[k]
			}
		}
		syrkUpperInto(syrkDot2x4, ws.scaled, int(f.panelL), gn, mmat, int(f.panelR0), r2)
	}
}

// factorNormal regularises the block normal equations formNormal left
// in ws, adding reg = scale·(1 + the largest diagonal entry of M) to
// every diagonal entry, eliminates the diagonal block and factors the
// Schur complement S = M11 − M12·D2⁻¹·M21 into ws.chol. It reports
// false when S is not positive definite.
func (ip *ipm) factorNormal(scale float64, ws *ipmWorkspace) bool {
	r2, nb := ws.form.r2, ip.m-ws.form.r2
	mmat, m21, d2, d2r := ws.mmat, ws.m21, ws.d2, ws.d2r
	worst := traceMax(mmat, r2)
	for _, v := range d2 {
		worst = math.Max(worst, math.Abs(v))
	}
	reg := scale * (1 + worst)
	for i := 0; i < r2; i++ {
		mmat[i*r2+i] += reg
	}
	// Wᵀ = D2^−½·M21 row by row in place, and W, its transpose, for
	// the SYRK.
	w := ws.w
	for l := range d2 {
		d2[l] += reg
		if !(d2[l] > 0) {
			return false
		}
		f := 1 / math.Sqrt(d2[l])
		d2r[l] = f
		row := m21[l*r2 : l*r2+r2]
		for i := range row {
			row[i] *= f
			w[i*nb+l] = row[i]
		}
	}
	// S = M11 − W·Wᵀ. The SYRK only adds, so the upper triangle is
	// negated, W·Wᵀ added, and the result negated into the lower
	// triangle choleskyInto reads: negation is exact, so S is
	// M11 − W·Wᵀ as one subtraction would round it.
	for i := 0; i < r2; i++ {
		row := mmat[i*r2+i : i*r2+r2]
		for k := range row {
			row[k] = -row[k]
		}
	}
	syrkUpperInto(syrkDot2x4, w, r2, nb, mmat, 0, r2)
	for i := 0; i < r2; i++ {
		for j := i; j < r2; j++ {
			mmat[j*r2+i] = -mmat[i*r2+j]
		}
	}
	return choleskyInto(mmat, ws.chol, r2)
}

// solveNormal solves M·out = rhs through the factor of the last
// factorNormal, by block substitution: with t = D2^−½·rhs₂, the
// leading rows solve S·out₁ = rhs₁ − W·t, and the block rows follow as
// out₂ = D2^−½·(t − Wᵀ·out₁). rhs is overwritten.
func (ip *ipm) solveNormal(rhs, out []float64, ws *ipmWorkspace) {
	r2 := ws.form.r2
	wt := ws.m21
	r1, t := rhs[:r2], rhs[r2:]
	for l, f := range ws.d2r {
		t[l] *= f
		tl, row := t[l], wt[l*r2:l*r2+r2]
		for i := range r1 {
			r1[i] -= row[i] * tl
		}
	}
	y1 := out[:r2]
	cholSolve(ws.chol, r2, r1, y1)
	for l, f := range ws.d2r {
		out[r2+l] = f * (t[l] - dot4(wt[l*r2:l*r2+r2], y1))
	}
}

// solveNewton computes the (dx, dy, ds) Newton direction for the given
// complementarity right-hand side rc, reusing the factor of the last
// factorNormal.
func (ip *ipm) solveNewton(d, rp, rd, rc, x, s, dy, dx, ds, rhs []float64, ws *ipmWorkspace) {
	n := ip.n
	// rhs = rp + A·(d∘rd − rc/s). dx is output-only until the final loop
	// below, so it doubles as the weight scratch.
	copy(rhs, rp)
	w := dx
	for j := 0; j < n; j++ {
		w[j] = d[j]*rd[j] - rc[j]/s[j]
	}
	ip.mulAdd(rhs, w, ws)
	ip.solveNormal(rhs, dy, ws)
	// dx = d∘(Aᵀdy − rd) + rc/s ; ds = (rc − s∘dx)/x
	aty := ip.mulT(dy, ws)
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
			s, t := dot4x2(l0[:j], l1[:j], lj[:j])
			l0[j] = (a0[j] - s) / lj[j]
			l1[j] = (a1[j] - t) / lj[j]
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

// dot4x2 returns x0·y and x1·y, each in dot4's chains and so with its
// bits, sharing each load of y between the two rows.
func dot4x2(x0, x1, y []float64) (float64, float64) {
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	x1 = x1[:len(x0)]
	y = y[:len(x0)]
	for len(y) >= 4 && len(x0) >= 4 && len(x1) >= 4 {
		s0 += x0[0] * y[0]
		s1 += x0[1] * y[1]
		s2 += x0[2] * y[2]
		s3 += x0[3] * y[3]
		t0 += x1[0] * y[0]
		t1 += x1[1] * y[1]
		t2 += x1[2] * y[2]
		t3 += x1[3] * y[3]
		x0, x1, y = x0[4:], x1[4:], y[4:]
	}
	x0, x1 = x0[:len(y)], x1[:len(y)]
	for k, yk := range y {
		s0 += x0[k] * yk
		t0 += x1[k] * yk
	}
	return (s0 + s1) + (s2 + s3), (t0 + t1) + (t2 + t3)
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
