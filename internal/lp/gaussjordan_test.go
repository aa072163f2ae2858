package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// invertDenseInto inverts the m×m row-major matrix in work into inv by
// dense Gauss-Jordan elimination with partial pivoting, destroying
// work; false means a pivot below 1e-12. It is the oracle gaussJordan
// must reproduce bit for bit.
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

// sparseInverse inverts the m×m row-major matrix a with gaussJordan,
// placing every nonzero entry.
func sparseInverse(a []float64, m int) ([]float64, bool) {
	g := newGaussJordan(m)
	work, inv := make([]float64, m*m), make([]float64, m*m)
	g.reset()
	for r := 0; r < m; r++ {
		for k := 0; k < m; k++ {
			if v := a[r*m+k]; v != 0 {
				g.place(work, r, k, v)
			}
		}
	}
	if !g.invert(work, inv) {
		return nil, false
	}
	return work, true
}

// checkSameInverse fails unless gaussJordan and the dense oracle give a
// the same verdict and, on success, the same inverse bit for bit, with
// +0 and −0 equal.
func checkSameInverse(t *testing.T, what string, a []float64, m int) bool {
	t.Helper()
	want, wantOK := invertDense(a, m)
	got, gotOK := sparseInverse(a, m)
	if gotOK != wantOK {
		t.Errorf("%s: sparse ok=%v, dense ok=%v", what, gotOK, wantOK)
		return false
	}
	for i := range want {
		if got[i] != want[i] || math.IsNaN(got[i]) != math.IsNaN(want[i]) {
			t.Errorf("%s: inverse entry (%d,%d) = %x, dense %x", what, i/m, i%m, got[i], want[i])
			return false
		}
	}
	return wantOK
}

// pricingShapedMatrix draws an m×m matrix of the pricing duals' basis
// shape: each column a unit column (slack, box or artificial, ±1 or an
// equilibrated magnitude) or a two-entry pair column (1/f and −1,
// f ≥ 1, in either order; f = 1 in a quarter of them, so pivot
// candidates of equal magnitude occur), at random rows, so most bases
// need row swaps and the pair columns create fill-in.
func pricingShapedMatrix(rng *rand.Rand, m int) []float64 {
	a := make([]float64, m*m)
	for k := 0; k < m; k++ {
		r := rng.Intn(m)
		if m < 2 || rng.Intn(3) == 0 {
			v := []float64{1, -1, 1 / (1 + rng.Float64())}[rng.Intn(3)]
			a[r*m+k] = v
			continue
		}
		s := (r + 1 + rng.Intn(m-1)) % m
		f := 1.0
		if rng.Intn(4) != 0 {
			f = math.Exp(0.4 + rng.Float64())
		}
		a[r*m+k], a[s*m+k] = 1/f, -1
		if rng.Intn(2) == 0 {
			a[r*m+k], a[s*m+k] = -1, 1/f
		}
	}
	return a
}

// TestSparseInverseBitIdentical compares gaussJordan with the dense
// Gauss-Jordan oracle on seeded pricing-shaped matrices (unit and
// two-entry columns at random rows, forcing row swaps and fill-in),
// dense matrices, singular ones (a repeated or empty column) and
// near-singular ones (a pivot below 1e-12, and one just above it).
func TestSparseInverseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	inverted := 0
	for _, m := range []int{1, 2, 3, 5, 8, 13, 24, 48} {
		for trial := 0; trial < 60; trial++ {
			a := pricingShapedMatrix(rng, m)
			if checkSameInverse(t, fmt.Sprintf("pricing m=%d trial %d", m, trial), a, m) {
				inverted++
			}
		}
		dense := make([]float64, m*m)
		for i := range dense {
			dense[i] = 2*rng.Float64() - 1
		}
		checkSameInverse(t, fmt.Sprintf("dense m=%d", m), dense, m)

		id := make([]float64, m*m)
		for i := 0; i < m; i++ {
			id[i*m+i] = 1
		}
		for _, tiny := range []float64{0, 1e-13, 2e-12} {
			a := append([]float64(nil), id...)
			a[(m-1)*m+m-1] = tiny
			ok := checkSameInverse(t, fmt.Sprintf("pivot %g m=%d", tiny, m), a, m)
			if ok != (tiny > 1e-12) {
				t.Errorf("pivot %g m=%d: ok=%v", tiny, m, ok)
			}
		}
		if m < 2 {
			continue
		}
		a := pricingShapedMatrix(rng, m)
		for r := 0; r < m; r++ {
			a[r*m+m-1] = a[r*m] // repeat column 0
		}
		if checkSameInverse(t, fmt.Sprintf("repeated column m=%d", m), a, m) {
			t.Errorf("repeated column m=%d inverted", m)
		}
		// Near-singular: column 1 is column 0 plus a perturbation whose
		// pivot lands below 1e-12 after elimination.
		a = append([]float64(nil), id...)
		a[0], a[1], a[m+1] = 1, 1, 1e-13
		if checkSameInverse(t, fmt.Sprintf("near-singular m=%d", m), a, m) {
			t.Errorf("near-singular m=%d inverted", m)
		}
	}
	if inverted == 0 {
		t.Fatal("no pricing-shaped matrix was invertible")
	}
}

// pricingDualInstance builds the pricing dual LP of core's pricer on k
// intervals joined by a random path and extra random pairs: rows
// Σ u ≥ −w_i, two columns (1, −f) and (−f, 1) per pair and one box
// column per row, the box costing 1.
func pricingDualInstance(rng *rand.Rand, k int) *Problem {
	type pair struct{ a, b int }
	var pairs []pair
	for i := 0; i+1 < k; i++ {
		pairs = append(pairs, pair{i, i + 1})
	}
	for e := 0; e < k/2; e++ {
		a, b := rng.Intn(k), rng.Intn(k)
		if a != b {
			pairs = append(pairs, pair{a, b})
		}
	}
	rows := make([][]Term, k)
	for pi, pr := range pairs {
		f := math.Exp(0.4 + rng.Float64())
		rows[pr.a] = append(rows[pr.a], Term{Var: 2 * pi, Coef: 1}, Term{Var: 2*pi + 1, Coef: -f})
		rows[pr.b] = append(rows[pr.b], Term{Var: 2 * pi, Coef: -f}, Term{Var: 2*pi + 1, Coef: 1})
	}
	p := NewProblem(2*len(pairs) + k)
	for i := 0; i < k; i++ {
		rows[i] = append(rows[i], Term{Var: 2*len(pairs) + i, Coef: 1})
		p.SetObjectiveCoeff(2*len(pairs)+i, 1)
	}
	for i := 0; i < k; i++ {
		p.AddConstraint(rows[i], GE, 2*rng.Float64()-1)
	}
	return p
}

// basisMatrix renders the basis matrix of cols (one simplex column per
// row) densely.
func basisMatrix(s *simplex, cols []int) []float64 {
	m := s.m
	a := make([]float64, m*m)
	for i, j := range cols {
		rows, vals := s.mat.col(j)
		for k, r := range rows {
			a[int(r)*m+i] = vals[k]
		}
	}
	return a
}

// TestSparseInverseWarmSweep runs warm pricing sweeps, right-hand sides
// drifting each solve as CG's duals do, and checks every basis the
// sweep inverts against the dense oracle: each restored snapshot and
// each final basis. No solve reaches refactorPeriod pivots, so these
// are all the bases refactor sees. It also checks that the inverse a
// solve ends with, re-inverted or kept (extractInto skips a basis no
// pivot changed), is the oracle's inverse of the final basis.
func TestSparseInverseWarmSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	geo := xorshift64(0x2545f4914f6cdd1d)
	const geoK = 12
	boxRows := make([]int, geoK) // geoIInstance's unit-box rows
	for i := range boxRows {
		boxRows[i] = 2*(geoK-1) + i
	}
	for _, tc := range []struct {
		name    string
		p       *Problem
		drifted []int // rows whose RHS drifts; nil: all
	}{
		{"pricing-dual-24", pricingDualInstance(rng, 24), nil},
		{"pricing-dual-48", pricingDualInstance(rng, 48), nil},
		{"geoi-12", geoIInstance(&geo, geoK), boxRows},
	} {
		name := tc.name
		pp, err := Prepare(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		s := pp.s
		drifted := tc.drifted
		if drifted == nil {
			for i := 0; i < s.m; i++ {
				drifted = append(drifted, i)
			}
		}
		rhs := make([]float64, s.m)
		for i, c := range tc.p.constraints {
			rhs[i] = c.RHS
		}
		var basis *Basis
		skipped := 0
		for step := 0; step < 40; step++ {
			for _, i := range drifted {
				rhs[i] += 0.05 * (2*rng.Float64() - 1)
				pp.SetRHS(i, rhs[i])
			}
			if basis.Len() == s.m {
				checkSameInverse(t, fmt.Sprintf("%s step %d snapshot", name, step), basisMatrix(s, basis.cols), s.m)
			}
			sol, err := pp.SolveFrom(basis)
			if err != nil || sol.Status != Optimal {
				t.Fatalf("%s step %d: %v %v", name, step, sol, err)
			}
			if sol.Iterations >= refactorPeriod {
				t.Fatalf("%s step %d: %d pivots, a periodic refactor went unchecked", name, step, sol.Iterations)
			}
			if sol.Iterations == 0 {
				skipped++
			}
			final := basisMatrix(s, s.basis)
			if !checkSameInverse(t, fmt.Sprintf("%s step %d final", name, step), final, s.m) {
				t.Fatalf("%s step %d: singular optimal basis", name, step)
			}
			want, _ := invertDense(final, s.m)
			for i := range want {
				if s.binv[i] != want[i] {
					t.Fatalf("%s step %d: binv entry %d = %x, oracle %x", name, step, i, s.binv[i], want[i])
				}
			}
			basis = pp.Basis(basis)
		}
		t.Logf("%s: %d of 40 solves made no pivot", name, skipped)
	}
}

// TestSparseInverseMemo checks the inverse a frozen basis memoises. For
// every basis of a warm pricing sweep, restoring the memo leaves the
// same B⁻¹ and basic values, bit for bit, as a refactor of the basis;
// solves from the frozen basis, the first of which fills the memo and
// some of which run concurrently on instances of their own, end with
// the bits of a solve from an unfrozen copy of it; and a restore that
// ends on the restored basis inverts nothing. A memo taken under other
// artificial signs (its rows' right-hand sides changed sign) no longer
// matches the basis matrix, and the solve factors the basis afresh.
func TestSparseInverseMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, k := range []int{24, 48} {
		p := pricingDualInstance(rng, k)
		pp, err := Prepare(p)
		if err != nil {
			t.Fatal(err)
		}
		m := pp.s.m
		rhs := make([]float64, m)
		for i, c := range p.constraints {
			rhs[i] = c.RHS
		}
		// solve runs SolveFrom(b) on a fresh instance at the current
		// right-hand sides.
		solve := func(b *Basis) (*Prepared, string) {
			q, err := Prepare(p)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range rhs {
				q.SetRHS(i, v)
			}
			sol, err := q.SolveFrom(b)
			if err != nil || sol.Status != Optimal {
				t.Fatalf("K=%d: %v %v", k, sol, err)
			}
			return q, fmt.Sprintf("%x %x %x %d", sol.X, sol.Duals, sol.Objective, sol.Iterations)
		}
		var basis *Basis
		var restoredOnly atomic.Int32
		for step := 0; step < 20; step++ {
			for i := range rhs {
				rhs[i] += 0.05 * (2*rng.Float64() - 1)
				pp.SetRHS(i, rhs[i])
			}
			if _, err := pp.SolveFrom(basis); err != nil {
				t.Fatal(err)
			}
			basis = pp.Basis(basis)
			for i := range rhs {
				rhs[i] += 0.02 * (2*rng.Float64() - 1)
			}
			_, want := solve(&Basis{cols: append([]int(nil), basis.cols...)})
			frozen := &Basis{cols: append([]int(nil), basis.cols...)}
			frozen.Freeze()
			if _, got := solve(frozen); got != want {
				t.Fatalf("K=%d step %d: the memo-filling solve differs from an unfrozen one", k, step)
			}
			inv := frozen.memo.inv.Load()
			if inv == nil {
				t.Fatalf("K=%d step %d: a restore left no memo", k, step)
			}
			got := make([]string, 4)
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var q *Prepared
					q, got[g] = solve(frozen)
					if q.s.bmatBuf == nil {
						restoredOnly.Add(1)
					}
				}()
			}
			wg.Wait()
			for g := range got {
				if got[g] != want {
					t.Fatalf("K=%d step %d: memo restore %d differs from an unfrozen solve", k, step, g)
				}
			}

			// Restore against refactor, state for state.
			q, _ := solve(nil)
			s := q.s
			install := func() {
				copy(s.b, q.bPert)
				q.installArtificialSigns()
				clear(s.inBase)
				for i, j := range frozen.cols {
					s.basis[i] = j
					s.inBase[j] = true
				}
			}
			install()
			if !s.refactor() {
				t.Fatalf("K=%d step %d: singular basis", k, step)
			}
			wantBinv, wantXB := fmt.Sprintf("%x", s.binv), fmt.Sprintf("%x", s.xb)
			install()
			for i := range s.binv {
				s.binv[i] = math.NaN()
			}
			if !s.inverts(inv) {
				t.Fatalf("K=%d step %d: the memo does not match its own basis", k, step)
			}
			s.restoreInverse(inv)
			if fmt.Sprintf("%x", s.binv) != wantBinv || fmt.Sprintf("%x", s.xb) != wantXB || !s.factored {
				t.Fatalf("K=%d step %d: restored B⁻¹ or xb differs from a refactor", k, step)
			}
		}
		if restoredOnly.Load() == 0 {
			t.Errorf("K=%d: every memo restore inverted its basis again", k)
		}

		// The all-artificial basis: its matrix is diag(±1), the signs of
		// the rows' right-hand sides at solve time.
		arts := &Basis{cols: make([]int, m)}
		for i := range arts.cols {
			arts.cols[i] = pp.s.artStart + i
		}
		arts.Freeze()
		solve(arts)
		inv := arts.memo.inv.Load()
		if inv == nil {
			t.Fatalf("K=%d: the artificial basis left no memo", k)
		}
		q, _ := solve(nil)
		rhs[0] = -math.Copysign(1+math.Abs(rhs[0]), rhs[0])
		q.SetRHS(0, rhs[0])
		copy(q.s.b, q.bPert)
		q.installArtificialSigns()
		copy(q.s.basis, arts.cols)
		if q.s.inverts(inv) {
			t.Fatalf("K=%d: a memo under another artificial sign still matches", k)
		}
		_, want := solve(&Basis{cols: arts.cols})
		if _, got := solve(arts); got != want {
			t.Fatalf("K=%d: a sign-mismatched memo changed the solve", k)
		}
		if arts.memo.inv.Load() != inv {
			t.Fatalf("K=%d: a sign-mismatched solve replaced the memo", k)
		}
	}
}
