package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// masterSolver compiles a column-generation master over k unit rows and
// k convexity rows, as internal/core's newMasterState does: 2k slack
// columns of cost rho (+1 and −1 on each unit row), then cols appended
// with costs.
func masterSolver(t testing.TB, k int, cols [][]Term, costs []float64, rho float64) *IPMSolver {
	t.Helper()
	p := NewProblem(2 * k)
	for s := 0; s < 2*k; s++ {
		p.SetObjectiveCoeff(s, rho)
	}
	for i := 0; i < k; i++ {
		p.AddConstraint([]Term{{Var: 2 * i, Coef: 1}, {Var: 2*i + 1, Coef: -1}}, EQ, 1)
	}
	for l := 0; l < k; l++ {
		p.AddConstraint(nil, EQ, 1)
	}
	sv, err := NewIPMSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	for c, col := range cols {
		sv.AddColumn(costs[c], col)
	}
	return sv
}

// blockCase is one shape the block normal equations must handle.
type blockCase struct {
	name string
	sv   *IPMSolver
	// panel is whether the shape must elect a panel span, so the cases
	// cannot all drift onto the remainder mirror alone unnoticed.
	panel bool
}

// blockCases builds the shapes TestBlockNewtonMatchesDense and
// TestPanelSweepsMatchMirror run on: seeded masters of several K (the
// larger ones elect a panel), masters with zero-vertex columns, with
// runs broken by interior zeros, with a convexity row no column
// touches, and with slack columns alone, plus the generic EQ problems
// of ipm_test.go and warm_test.go.
func blockCases(t testing.TB) []blockCase {
	rng := rand.New(rand.NewSource(71))
	costs := func(n int) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.Float64()
		}
		return c
	}
	master := func(k int, cols [][]Term) *IPMSolver {
		return masterSolver(t, k, cols, costs(len(cols)), 3)
	}
	var cases []blockCase
	add := func(name string, sv *IPMSolver, panel bool) {
		cases = append(cases, blockCase{name, sv, panel})
	}
	for _, k := range []int{1, 2, 7, 24, 48} {
		add(fmt.Sprintf("master K%d", k), master(k, masterColumns(rng, k, 8*k)), k >= 24)
	}

	const k = 24
	cols := masterColumns(rng, k, 200)
	for c := 0; c < 40; c++ {
		// A zero vertex: the convexity entry alone.
		cols = append(cols, []Term{{Var: k + rng.Intn(k), Coef: 1}})
	}
	add("zero vertices", master(k, cols), true)

	cols = masterColumns(rng, k, 200)
	for c := range cols {
		// Drop interior unit-row entries, as a zero coordinate of a
		// column is never stored: row 18 from every other column, so
		// the panel spans rows 0..17 and its members keep entries past
		// their run, and random ones from the rest.
		var kept []Term
		for i, e := range cols[c] {
			last := i == len(cols[c])-1
			if c%2 == 0 && (e.Var != 18 || last) || c%2 == 1 && (i == 0 || last || rng.Intn(6) > 0) {
				kept = append(kept, e)
			}
		}
		cols[c] = kept
	}
	add("broken runs", master(k, cols), true)

	cols = masterColumns(rng, k, 200)
	for _, col := range cols {
		if e := &col[len(col)-1]; e.Var == 2*k-1 {
			e.Var = k
		}
	}
	add("empty convexity row", master(k, cols), true)
	add("slacks only", master(k, nil), false)

	for _, extra := range []bool{false, true} {
		sv, err := NewIPMSolver(eqTestProblem(extra))
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("eqTestProblem(%v)", extra), sv, false)
	}
	for trial := 0; trial < 4; trial++ {
		sv, err := NewIPMSolver(withSlacks(randomCoveringLP(rng, 6+trial, 4+trial)))
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("covering LP %d", trial), sv, false)
	}
	// TestIPMDegenerateParallelColumns' shape, every column dense over
	// all 30 rows, so the panel holds rows 0..28 and row 29 is the
	// block; its near-parallel columns are spread out here, since a
	// forward-error bound needs a well-conditioned M.
	const m, n = 30, 120
	p := NewProblem(n)
	for i := 0; i < m; i++ {
		terms := make([]Term, n)
		for j := range terms {
			terms[j] = Term{Var: j, Coef: 0.05 + rng.Float64()}
		}
		p.AddConstraint(terms, EQ, 10)
	}
	sv, err := NewIPMSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	add("dense columns", sv, true)

	for _, c := range cases {
		c.sv.ip.fit(c.sv.ws)
		if got := len(c.sv.ws.form.members) > 0; got != c.panel {
			t.Fatalf("%s: panel elected %v, want %v", c.name, got, c.panel)
		}
	}
	return cases
}

// formNormalDense is the dense oracle of formNormal: M = A diag(d) Aᵀ as
// one m×m matrix with no block split (the upper triangle column by
// column, the panel's span by the SYRK last, then mirrored), over the
// same runs and panel members.
func formNormalDense(ip *ipm, f *ipmForm, d []float64) []float64 {
	m := ip.m
	mmat := make([]float64, m*m)
	colPtr, colRows, colVals := ip.mat.colPtr, ip.mat.rows, ip.mat.vals
	l, gn := int(f.panelL), len(f.members)
	panel := make([]float64, l*gn)
	g := 0
	for j := 0; j < ip.n; j++ {
		lo, hi := colPtr[j], colPtr[j+1]
		if lo == hi {
			continue
		}
		rows, vals := colRows[lo:hi], colVals[lo:hi]
		dj := d[j]
		run := int(f.runs[j])
		if g < gn && int(f.members[g]) == j {
			sd := math.Sqrt(dj)
			for t := 0; t < run; t++ {
				panel[t*gn+g] = sd * vals[t]
			}
			g++
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
			for b := a; b < len(rows); b++ {
				mmat[int(ra)*m+int(rows[b])] += va * vals[b]
			}
		}
	}
	if gn > 0 {
		syrkUpperInto(syrkDot2x4, panel, l, gn, mmat, int(f.panelR0), m)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			mmat[j*m+i] = mmat[i*m+j]
		}
	}
	return mmat
}

// solveDense is the dense oracle of factorNormal and solveNormal: the
// same regularisation, one m×m Cholesky factor, and its solve.
func solveDense(mmat []float64, m int, scale float64, rhs []float64) ([]float64, bool) {
	a := append([]float64(nil), mmat...)
	reg := scale * (1 + traceMax(a, m))
	for i := 0; i < m; i++ {
		a[i*m+i] += reg
	}
	l := make([]float64, m*m)
	if !choleskyInto(a, l, m) {
		return nil, false
	}
	out := make([]float64, m)
	cholSolve(l, m, rhs, out)
	return out, true
}

// randomScaling draws a seeded positive scaling d spanning e^±3, the
// spread of a mid-run Newton iteration's x/s.
func randomScaling(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for j := range d {
		d[j] = math.Exp(6 * (rng.Float64() - 0.5))
	}
	return d
}

// TestBlockNewtonMatchesDense checks the block normal equations against
// the dense oracle on every blockCases shape: M11, M21 and D2 must be
// the oracle's entries bit for bit, the oracle's entries between two
// block rows must be zero (the block is diagonal), and the block
// solve's dy must match the dense factor's within 1e-10 relative.
func TestBlockNewtonMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, c := range blockCases(t) {
		ip, ws := c.sv.ip, c.sv.ws
		f := &ws.form
		m, r2 := ip.m, f.r2
		for trial := 0; trial < 3; trial++ {
			d := randomScaling(rng, ip.n)
			ip.formNormal(d, ws)
			dense := formNormalDense(ip, f, d)
			for i := 0; i < r2; i++ {
				for j := i; j < r2; j++ {
					if got, want := ws.mmat[i*r2+j], dense[i*m+j]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: M11[%d][%d] = %v, oracle %v", c.name, i, j, got, want)
					}
				}
			}
			for l := r2; l < m; l++ {
				for i := 0; i < r2; i++ {
					if got, want := ws.m21[(l-r2)*r2+i], dense[i*m+l]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: M21[%d][%d] = %v, oracle %v", c.name, l-r2, i, got, want)
					}
				}
				for l2 := r2; l2 < m; l2++ {
					want := dense[l*m+l2]
					if l2 != l && want != 0 {
						t.Fatalf("%s: block rows %d and %d couple (%v): the block is not diagonal", c.name, l, l2, want)
					}
					if got := ws.d2[l-r2]; l2 == l && math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: D2[%d] = %v, oracle %v", c.name, l-r2, got, want)
					}
				}
			}

			rhs := make([]float64, m)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			want, ok := solveDense(dense, m, 1e-12, rhs)
			if !ok {
				t.Fatalf("%s: the dense oracle's factor broke down", c.name)
			}
			if !ip.factorNormal(1e-12, ws) {
				t.Fatalf("%s: the Schur complement's factor broke down", c.name)
			}
			got := make([]float64, m)
			ip.solveNormal(append([]float64(nil), rhs...), got, ws)
			scale, diff := 0.0, 0.0
			for i := range want {
				scale = math.Max(scale, math.Abs(want[i]))
				diff = math.Max(diff, math.Abs(got[i]-want[i]))
			}
			if diff > 1e-10*scale {
				t.Fatalf("%s trial %d: block dy differs from the dense solve by %g (|dy| %g)", c.name, trial, diff, scale)
			}
		}
	}
}

// TestPanelSweepsMatchMirror checks the panel-plus-remainder sweeps
// against a full row-major mirror of the matrix on every blockCases
// shape: Aᵀv must match bit for bit (each column's products arrive in
// the same row order), A·w, whose panel rows are four-chain dots,
// within 1e-14 of the row's absolute sum. Clones of one compiled master
// share its panel and remainder mirror: four of them sweep it
// concurrently (ci.sh's race gate runs this under -race), each against
// the full mirror, and must leave the shared arrays byte for byte as
// they found them.
func TestPanelSweepsMatchMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	cases := blockCases(t)
	for _, c := range cases {
		if err := sweepsMatch(c.sv.ip, c.sv.ws, rng); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}

	frozen := cases[4].sv.Compiled() // master K48
	before := formBytes(&frozen.form)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for g := range errs {
		clone := frozen.Clone(make([]float64, frozen.n))
		wg.Add(1)
		go func() {
			defer wg.Done()
			clone.ip.fit(clone.ws)
			errs[g] = sweepsMatch(clone.ip, clone.ws, rand.New(rand.NewSource(int64(g))))
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("clone %d: %v", g, err)
		}
	}
	if formBytes(&frozen.form) != before {
		t.Fatal("concurrent clone sweeps wrote to the shared panel or remainder mirror")
	}
}

// sweepsMatch runs three trials of ip's Aᵀv and A·w sweeps in ws on
// seeded vectors, a fifth of their entries zero, against a full mirror
// of ip's matrix.
func sweepsMatch(ip *ipm, ws *ipmWorkspace, rng *rand.Rand) error {
	var full csr
	full.build(&ip.mat, ip.m, nil, 0)
	sparse := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(5) > 0 {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	for trial := 0; trial < 3; trial++ {
		v := sparse(ip.m)
		want := make([]float64, ip.n)
		full.mulTAddInto(want, v)
		got := ip.mulT(v, ws)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				return fmt.Errorf("(Aᵀv)[%d] = %v, full mirror %v", j, got[j], want[j])
			}
		}

		w := sparse(ip.n)
		dst := make([]float64, ip.m)
		for i := range dst {
			dst[i] = rng.NormFloat64()
		}
		wantAw := append([]float64(nil), dst...)
		full.mulAddInto(wantAw, w)
		gotAw := append([]float64(nil), dst...)
		ip.mulAdd(gotAw, w, ws)
		for i := range wantAw {
			bound := math.Abs(dst[i])
			for k := full.ptr[i]; k < full.ptr[i+1]; k++ {
				bound += math.Abs(full.vals[k] * w[full.cols[k]])
			}
			if math.Abs(gotAw[i]-wantAw[i]) > 1e-14*bound {
				return fmt.Errorf("(A·w)[%d] = %v, full mirror %v", i, gotAw[i], wantAw[i])
			}
		}
	}
	return nil
}

// servedMasterColumns draws the pool of a served K=48 donor master: 324
// columns dense over every unit row and 55 with 7 unit entries, each
// plus its convexity entry. With the 2K slacks that is 475 variables
// and 16.4k nonzeros.
func servedMasterColumns(rng *rand.Rand, k int) [][]Term {
	var cols [][]Term
	for c := 0; c < 324+55; c++ {
		rows := rng.Perm(k)
		if c >= 324 {
			rows = rows[:7]
		}
		sort.Ints(rows)
		var col []Term
		for _, i := range rows {
			col = append(col, Term{Var: i, Coef: 0.05 + 0.95*rng.Float64()})
		}
		cols = append(cols, append(col, Term{Var: k + rng.Intn(k), Coef: 1}))
	}
	return cols
}

// BenchmarkNewtonStep times one Newton iteration's linear algebra on a
// served K=48 master's shape (servedMasterColumns): one formNormal, one
// factorNormal, the two Newton solves and the residuals, whose six
// sweeps are the iteration's Aᵀv and A·w.
func BenchmarkNewtonStep(b *testing.B) {
	const k = 48
	rng := rand.New(rand.NewSource(83))
	cols := servedMasterColumns(rng, k)
	costs := make([]float64, len(cols))
	for i := range costs {
		costs[i] = rng.Float64()
	}
	sv := masterSolver(b, k, cols, costs, 3)
	ip, ws := sv.ip, sv.ws
	ip.fit(ws)
	n, m := ip.n, ip.m
	x, s, d := randomScaling(rng, n), randomScaling(rng, n), make([]float64, n)
	y := make([]float64, m)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	for j := range d {
		d[j] = x[j] / s[j]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip.residuals(x, y, s, ws.rp, ws.rd, ws)
		ip.formNormal(d, ws)
		if !ip.factorNormal(1e-12, ws) {
			b.Fatal("breakdown")
		}
		for j := range ws.rc {
			ws.rc[j] = -x[j] * s[j]
		}
		ip.solveNewton(d, ws.rp, ws.rd, ws.rc, x, s, ws.dy, ws.dx, ws.ds, ws.rhs, ws)
		ip.solveNewton(d, ws.rp, ws.rd, ws.rc, x, s, ws.dyc, ws.dxc, ws.dsc, ws.rhs, ws)
	}
	b.ReportMetric(float64(len(ws.form.members)), "panel-cols")
}
