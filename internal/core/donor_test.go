package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/discretize"
	"repro/internal/lp"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// donorOpts is the serving layer's default stop rule.
var donorOpts = CGOptions{Xi: -0.05, RelGap: 0.02}

// donorPart is the K=48 tier of the solve-cold benchmark: a 3×3 grid
// at δ 0.15.
func donorPart(t *testing.T) (*roadnet.Graph, *discretize.Partition) {
	t.Helper()
	g := roadnet.Grid(rand.New(rand.NewSource(1)), roadnet.GridConfig{
		Rows: 3, Cols: 3, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	part, err := discretize.New(g, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if part.K() != 48 {
		t.Fatalf("tier has K=%d, want 48", part.K())
	}
	return g, part
}

// tracePrior is the interval prior of a simulated fleet drawn with seed.
func tracePrior(t *testing.T, g *roadnet.Graph, part *discretize.Partition, seed int64) []float64 {
	t.Helper()
	sim := trace.DefaultSim()
	sim.Vehicles, sim.Duration = 60, 1800
	traces, err := trace.Simulate(rand.New(rand.NewSource(seed)), g, sim)
	if err != nil {
		t.Fatal(err)
	}
	return trace.PriorFromTraces(part, traces, 1)
}

// jitteredPrior scales each entry of base by a factor uniform in
// [1−frac, 1+frac] and renormalises.
func jitteredPrior(rng *rand.Rand, base []float64, frac float64) []float64 {
	p := make([]float64, len(base))
	sum := 0.0
	for i, b := range base {
		p[i] = b * (1 + frac*(2*rng.Float64()-1))
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// stateFingerprint renders a state's columns, master iterate and bases,
// unexported fields included and every float in hexadecimal (exact to
// the bit), so any write to a shared state shows as a change. A basis
// renders its row indices and the address of its inverse memo, which
// resumes fill.
func stateFingerprint(st *CGState) string {
	s := fmt.Sprintf("%x %x", st.k, st.columns)
	if st.master != nil {
		s += fmt.Sprintf(" %x", *st.master)
	}
	for _, b := range st.bases {
		if b != nil {
			s += fmt.Sprintf(" %v", *b)
		}
	}
	return s
}

// compiledFingerprint renders the compiled master a resume kept in st
// (matrix, row-major mirror, run classification), every float exact to
// the bit in %v's shortest round-tripping form, or "" when none has.
func compiledFingerprint(st *CGState) string {
	if f := st.compiled.Load(); f != nil {
		return fmt.Sprintf("%v", *f)
	}
	return ""
}

// TestSolveCGDonorResume resumes K=48 solves from a donor solved on
// another prior over the same geometry: once for a ±0.1% jitter of the
// donor's prior and once for the prior of another simulated fleet. The
// resumed run must serve a Geo-I mechanism no worse than the cold run
// by more than RelGap and no better than the certified bound.
func TestSolveCGDonorResume(t *testing.T) {
	g, part := donorPart(t)
	base := tracePrior(t, g, part, 7)
	problem := func(prior []float64) *Problem {
		pr, err := NewProblem(part, Config{Epsilon: 6, PriorP: prior, PriorQ: prior})
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	donorPr := problem(base)
	donor, err := SolveCG(donorPr, donorOpts)
	if err != nil {
		t.Fatal(err)
	}
	k := part.K()
	for l, b := range donor.State.bases {
		if b.Len() != k {
			t.Fatalf("donor basis %d covers %d rows, want %d", l, b.Len(), k)
		}
	}

	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name  string
		prior []float64
	}{
		{"jitter", jitteredPrior(rng, base, 0.001)},
		{"trace-seed", tracePrior(t, g, part, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pr := problem(tc.prior)
			cold, err := SolveCG(pr, donorOpts)
			if err != nil {
				t.Fatal(err)
			}
			opts := donorOpts
			opts.Resume = donor.State
			warm, err := SolveCG(pr, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("cold: %d rounds, %d columns, ETDD %.9f; donor: %d rounds, %d columns, ETDD %.9f",
				len(cold.Iterations), cold.State.Columns(), cold.ETDD,
				len(warm.Iterations), warm.State.Columns(), warm.ETDD)
			// Re-costed columns: the master prices the pool at this
			// prior, so its objective is the served ETDD.
			if obj := warm.Iterations[len(warm.Iterations)-1].MasterObj; math.Abs(obj-warm.ETDD) > 1e-6*warm.ETDD {
				t.Errorf("donor-resumed master objective %v, ETDD %v", obj, warm.ETDD)
			}
			if lb := max(warm.LowerBound, cold.LowerBound); warm.ETDD < lb-1e-9 {
				t.Errorf("donor-resumed ETDD %v below the lower bound %v", warm.ETDD, lb)
			}
			if limit := cold.ETDD * (1 + donorOpts.RelGap); warm.ETDD > limit {
				t.Errorf("donor-resumed ETDD %v above cold ETDD %v × (1 + RelGap)", warm.ETDD, cold.ETDD)
			}
			served, _, err := pr.EnforceGeoI(warm.Mechanism, GeoITol)
			if err != nil {
				t.Fatalf("EnforceGeoI: %v", err)
			}
			if v := pr.GeoIViolation(served); v > 1e-9 {
				t.Errorf("served Geo-I violation %g", v)
			}
		})
	}
}

// donorGeometry is one road network's D-VLP instance factory, with the
// prior its donor is solved on.
type donorGeometry struct {
	name    string
	problem func(prior []float64) *Problem
	prior   []float64
}

// donorGeometries are the solve-cold benchmark's K=48 instance (the
// bench_test.go network, prior and ε) and the K24 golden instance
// (internal/lp golden_test.go) under a uniform prior.
func donorGeometries(t testing.TB) []donorGeometry {
	t.Helper()
	on := func(part *discretize.Partition, eps float64) func([]float64) *Problem {
		return func(prior []float64) *Problem {
			pr, err := NewProblem(part, Config{Epsilon: eps, PriorP: prior, PriorQ: prior})
			if err != nil {
				t.Fatal(err)
			}
			return pr
		}
	}
	rng := rand.New(rand.NewSource(77))
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 3, Cols: 3, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15})
	bench, err := discretize.New(g, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := trace.Simulate(rng, g, trace.SimConfig{
		Vehicles: 12, Duration: 900, RecordEvery: 7, SpeedKmh: 30, CenterBias: 1, DropoutProb: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	benchPrior := trace.PriorFromTraces(bench, traces, 0.5)

	g24 := roadnet.Grid(rand.New(rand.NewSource(77)), roadnet.GridConfig{Rows: 2, Cols: 3, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15})
	golden, err := discretize.New(g24, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	uniform := make([]float64, golden.K())
	for i := range uniform {
		uniform[i] = 1 / float64(len(uniform))
	}
	return []donorGeometry{
		{"bench-K48", on(bench, 5), benchPrior},
		{"golden-K24", on(golden, 5), uniform},
	}
}

// TestSolveCGDonorResumeWarmMaster resumes ±0.1% jitters of a donor's
// prior twice each: from the donor's in-memory state, whose first master
// solve starts from the donor's final interior iterate, and from the
// same state after a Snapshot/RestoreCGState round trip, which drops the
// iterate and the pricing bases, as a pool read back from disk does. The
// two must serve the same quality loss, both must pass the Geo-I repair
// gate as row-stochastic mechanisms, and the warm first master must take
// fewer Newton iterations than the cold one.
func TestSolveCGDonorResumeWarmMaster(t *testing.T) {
	for _, geo := range donorGeometries(t) {
		t.Run(geo.name, func(t *testing.T) {
			donor, err := SolveCG(geo.problem(geo.prior), donorOpts)
			if err != nil {
				t.Fatal(err)
			}
			if donor.State.master == nil {
				t.Fatal("the donor's State carries no master iterate")
			}
			restored, err := RestoreCGState(donor.State.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if restored.master != nil || restored.bases != nil {
				t.Fatal("a restored snapshot carries the in-memory iterate or bases")
			}
			serve := func(pr *Problem, resume *CGState) (*CGResult, float64) {
				t.Helper()
				opts := donorOpts
				opts.Resume = resume
				res, err := SolveCG(pr, opts)
				if err != nil {
					t.Fatal(err)
				}
				served, etdd, err := pr.EnforceGeoI(res.Mechanism, GeoITol)
				if err != nil {
					t.Fatalf("EnforceGeoI: %v", err)
				}
				if v := pr.GeoIViolation(served); v > GeoITol {
					t.Errorf("served Geo-I violation %g above %g", v, GeoITol)
				}
				if e := served.RowStochasticError(); e > 1e-9 {
					t.Errorf("served rows miss 1 by up to %g", e)
				}
				return res, etdd
			}
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 10; trial++ {
				pr := geo.problem(jitteredPrior(rng, geo.prior, 0.001))
				warm, warmETDD := serve(pr, donor.State)
				cold, coldETDD := serve(pr, restored)
				if d := math.Abs(warmETDD-coldETDD) / coldETDD; d > 1e-6 {
					t.Errorf("trial %d: warm-master ETDD %.10f, cold-master %.10f (%.2g relative)", trial, warmETDD, coldETDD, d)
				}
				w, c := warm.Iterations[0].MasterIterations, cold.Iterations[0].MasterIterations
				if w >= c {
					t.Errorf("trial %d: warm first master took %d Newton iterations, cold %d", trial, w, c)
				}
				if trial == 0 {
					t.Logf("first master: warm %d, cold %d Newton iterations; ETDD %.10f vs %.10f", w, c, warmETDD, coldETDD)
				}
			}
		})
	}
}

// TestSolveCGDonorResumeForeignIterate resumes from a state whose master
// iterate belongs to another road network, so its length does not match
// the master: the iterate is ignored, and the run ends optimal with the
// bits of a resume that carries no iterate at all.
func TestSolveCGDonorResumeForeignIterate(t *testing.T) {
	geos := donorGeometries(t)
	k48, k24 := geos[0], geos[1]
	donor, err := SolveCG(k48.problem(k48.prior), donorOpts)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := SolveCG(k24.problem(k24.prior), donorOpts)
	if err != nil {
		t.Fatal(err)
	}
	pr := k48.problem(jitteredPrior(rand.New(rand.NewSource(6)), k48.prior, 0.001))
	solve := func(master *lp.Iterate) *CGResult {
		t.Helper()
		opts := donorOpts
		opts.Resume = &CGState{k: donor.State.k, columns: donor.State.columns, master: master, bases: donor.State.bases}
		res, err := SolveCG(pr, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got, want := solve(foreign.State.master), solve(nil)
	if fmt.Sprintf("%x", got.Mechanism.Z) != fmt.Sprintf("%x", want.Mechanism.Z) {
		t.Fatalf("a foreign iterate changed the mechanism: ETDD %v, without it %v", got.ETDD, want.ETDD)
	}
}

// wantSupport restates resumeColumns' rule over st's pool: the pool
// indices of the columns st's iterate holds active, plus, for each
// convexity row none of them covers, the row's column of largest x.
func wantSupport(st *CGState) []int {
	k, it := st.k, st.master
	covered := make([]bool, k)
	for i, c := range st.columns {
		if it.Active(2*k + i) {
			covered[c.l] = true
		}
	}
	best := make([]int, k)
	for l := range best {
		best[l] = -1
	}
	for i, c := range st.columns {
		if b := best[c.l]; !covered[c.l] && (b < 0 || it.X(2*k+i) > it.X(2*k+b)) {
			best[c.l] = i
		}
	}
	var sup []int
	for i, c := range st.columns {
		if it.Active(2*k+i) || best[c.l] == i {
			sup = append(sup, i)
		}
	}
	return sup
}

// TestSolveCGDonorResumeSupport resumes from a donor's in-memory state,
// whose master starts over the support of the donor's final iterate,
// not over its whole pool. On each donor geometry:
//   - the resumed master holds exactly the support (wantSupport), which
//     covers every convexity row, and the resumed run's pool is the
//     support plus what it appends;
//   - at the exact rule, a support resume and a full-pool resume of the
//     same state (its pool and bases without the iterate, which resumes
//     the whole pool) each report a bound no higher than the other's
//     ETDD;
//   - an iterate doctored so that no column of some convexity row l is
//     active still resumes optimal, with l covered by its column of
//     largest x;
//   - concurrent resumes leave the donor's pool, iterate, bases and
//     snapshot as they were.
func TestSolveCGDonorResumeSupport(t *testing.T) {
	for _, geo := range donorGeometries(t) {
		t.Run(geo.name, func(t *testing.T) {
			donorPr := geo.problem(geo.prior)
			donor, err := SolveCG(donorPr, donorOpts)
			if err != nil {
				t.Fatal(err)
			}
			st := donor.State
			k := st.k
			rng := rand.New(rand.NewSource(21))
			resume := func(pr *Problem, from *CGState, opts CGOptions) *CGResult {
				t.Helper()
				opts.Resume = from
				res, err := SolveCG(pr, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stopped != "" {
					t.Fatalf("resume stopped early: %s", res.Stopped)
				}
				return res
			}

			pr := geo.problem(jitteredPrior(rng, geo.prior, 0.001))
			want := wantSupport(st)
			if len(want) >= st.Columns() {
				t.Fatalf("the support keeps %d of the pool's %d columns", len(want), st.Columns())
			}
			columns, support := st.resumeColumns(pr)
			if len(columns) != len(want) || len(support) != 2*k+len(want) {
				t.Fatalf("resumed master has %d columns (%d iterate columns), want the support's %d",
					len(columns), len(support), len(want))
			}
			covered := make([]bool, k)
			for j, i := range append(make([]int, 2*k), want...) {
				if j < 2*k {
					i = j - 2*k // a slack keeps its index
				} else {
					c := columns[j-2*k]
					if c.l != st.columns[i].l || &c.z[0] != &st.columns[i].z[0] {
						t.Fatalf("resumed master column %d is not pool column %d", j-2*k, i)
					}
					covered[c.l] = true
				}
				if support[j] != 2*k+i {
					t.Fatalf("resumed master column %d starts from iterate column %d, want %d", j, support[j], 2*k+i)
				}
			}
			for l, ok := range covered {
				if !ok {
					t.Fatalf("the support covers no column of convexity row %d", l)
				}
			}
			res := resume(pr, st, donorOpts)
			served := func(pr *Problem, res *CGResult) float64 {
				t.Helper()
				m, etdd, err := pr.EnforceGeoI(res.Mechanism, GeoITol)
				if err != nil {
					t.Fatalf("EnforceGeoI: %v", err)
				}
				if v := pr.GeoIViolation(m); v > GeoITol {
					t.Errorf("served Geo-I violation %g", v)
				}
				return etdd
			}
			if got := res.State.master.Columns(); got != 2*k+res.State.Columns() {
				t.Fatalf("the resumed run's iterate spans %d columns, its pool %d", got, res.State.Columns())
			}
			for n, c := range res.State.columns[:len(columns)] {
				if &c.z[0] != &columns[n].z[0] {
					t.Fatalf("the resumed run's pool column %d is not the support's", n)
				}
			}
			t.Logf("donor pool %d columns, resumed master %d, resumed run's pool %d",
				st.Columns(), len(columns), res.State.Columns())

			exact := donorOpts
			exact.Xi, exact.RelGap = 0, 0
			full := &CGState{k: k, columns: st.columns, bases: st.bases}
			for trial := 0; trial < 2; trial++ {
				pr := geo.problem(jitteredPrior(rng, geo.prior, 0.001))
				sup, all := resume(pr, st, exact), resume(pr, full, exact)
				supETDD, allETDD := served(pr, sup), served(pr, all)
				if sup.LowerBound > allETDD*(1+1e-8) || all.LowerBound > supETDD*(1+1e-8) {
					t.Errorf("trial %d: bounds %.12f (support) and %.12f (full pool) do not bracket ETDDs %.12f and %.12f",
						trial, sup.LowerBound, all.LowerBound, allETDD, supETDD)
				}
				t.Logf("exact trial %d: support %d rounds %v ETDD %.12f (%.12f served) bound %.12f; full pool %d rounds %v ETDD %.12f (%.12f served) bound %.12f",
					trial, len(sup.Iterations), sup.Elapsed, sup.ETDD, supETDD, sup.LowerBound,
					len(all.Iterations), all.Elapsed, all.ETDD, allETDD, all.LowerBound)
			}

			// Doctor the iterate: move row 0's active columns to the end
			// of the pool, appended under a cost raised by 1, so that each
			// sits at the warm floor below its dual slack.
			const l = 0
			var keep, moved []cgColumn
			cols := make([]int, 2*k)
			for j := range cols {
				cols[j] = j
			}
			for i, c := range st.columns {
				if c.l == l && st.master.Active(2*k+i) {
					moved = append(moved, c)
				} else {
					keep = append(keep, c)
					cols = append(cols, 2*k+i)
				}
			}
			ms, err := newMasterState(donorPr, keep, 1)
			if err != nil {
				t.Fatal(err)
			}
			ms.sv.StartFrom(st.master, cols)
			for _, c := range moved {
				ms.sv.AddColumn(c.cost+1, ms.colEntries(c))
			}
			doctored := &CGState{k: k, columns: append(keep, moved...), master: ms.sv.Iterate(), bases: st.bases}
			pick := -1
			for i, c := range doctored.columns {
				if c.l != l {
					continue
				}
				if doctored.master.Active(2*k + i) {
					t.Fatalf("doctored column %d of row %d is still active", i, l)
				}
				if pick < 0 || doctored.master.X(2*k+i) > doctored.master.X(2*k+pick) {
					pick = i
				}
			}
			_, dsup := doctored.resumeColumns(pr)
			var picked []int
			for _, j := range dsup[2*k:] {
				if doctored.columns[j-2*k].l == l {
					picked = append(picked, j-2*k)
				}
			}
			if len(picked) != 1 || picked[0] != pick {
				t.Fatalf("row %d is covered by pool columns %v, want its largest-x column %d", l, picked, pick)
			}
			served(pr, resume(pr, doctored, donorOpts))

			before, snap, n := stateFingerprint(st), fmt.Sprintf("%x", *st.Snapshot()), st.Columns()
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				pr := geo.problem(jitteredPrior(rand.New(rand.NewSource(int64(30+w))), geo.prior, 0.001))
				wg.Add(1)
				go func() {
					defer wg.Done()
					opts := donorOpts
					opts.Resume = st
					if _, err := SolveCG(pr, opts); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if st.Columns() != n || stateFingerprint(st) != before || fmt.Sprintf("%x", *st.Snapshot()) != snap {
				t.Error("concurrent resumes wrote to the donor state")
			}
		})
	}
}

// TestSolveCGDonorResumeSharedMaster resumes from a donor's in-memory
// state after an earlier resume kept the compiled master and the basis
// inverses in it, so the master is cloned and every basis restored from
// its memo, and from a fresh copy of the same state (the same donor
// solved again), whose resume compiles its master afresh over the pool
// (newMasterState) and inverts every basis: the two must serve the same
// Z bit for bit, in the same rounds, Newton iterations and columns per
// round. One resume of each geometry solves exactly and appends
// columns, so its clone copies the shared matrix and rebuilds its own
// mirror. The shared state, its compiled master included, must come out
// unchanged.
func TestSolveCGDonorResumeSharedMaster(t *testing.T) {
	for _, geo := range donorGeometries(t) {
		t.Run(geo.name, func(t *testing.T) {
			donorState := func() *CGState {
				t.Helper()
				donor, err := SolveCG(geo.problem(geo.prior), donorOpts)
				if err != nil {
					t.Fatal(err)
				}
				return donor.State
			}
			rng := rand.New(rand.NewSource(9))
			resume := func(pr *Problem, from *CGState, exact bool) *CGResult {
				t.Helper()
				opts := donorOpts
				if exact {
					opts.Xi, opts.RelGap = 0, 0
				}
				opts.Resume = from
				res, err := SolveCG(pr, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			st := donorState()
			resume(geo.problem(jitteredPrior(rng, geo.prior, 0.001)), st, false)
			if compiledFingerprint(st) == "" {
				t.Fatal("a resume kept no compiled master in the donor's state")
			}
			// The kept master is compiled over the support of the donor's
			// iterate: a clone of it solves with the bits of a fresh
			// compile of the same columns, before and after an append.
			pr := geo.problem(jitteredPrior(rng, geo.prior, 0.001))
			columns, support := st.resumeColumns(pr)
			rho := startRho(pr)
			clone := cloneMasterState(st.k, st.compiledMaster(), columns, rho)
			fresh, err := newMasterState(pr, columns, rho)
			if err != nil {
				t.Fatal(err)
			}
			if n := clone.sv.NumVars(); n != 2*st.k+len(columns) || len(columns) >= st.Columns() {
				t.Fatalf("the kept master has %d columns, want the support's %d of the pool's %d", n, 2*st.k+len(columns), 2*st.k+st.Columns())
			}
			solveBits := func(ms *masterState) string {
				t.Helper()
				obj, lam, pi, mu, slack, iters, err := ms.solve(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%x %x %x %x %x %d", obj, lam, pi, mu, slack, iters)
			}
			extra := st.columns[len(st.columns)-1] // the pool's last column
			for _, ms := range []*masterState{clone, fresh} {
				ms.sv.StartFrom(st.master, support)
			}
			for round := 0; round < 2; round++ {
				if got, want := solveBits(clone), solveBits(fresh); got != want {
					t.Fatalf("round %d: a clone of the kept master solved to %s, a fresh compile of the support to %s", round, got, want)
				}
				c := cgColumn{l: extra.l, z: extra.z, cost: pr.columnCost(extra.l, extra.z)}
				clone.addColumn(c)
				fresh.addColumn(c)
			}
			clone.sv.Release()
			before := stateFingerprint(st) + compiledFingerprint(st)
			trace := func(res *CGResult) string {
				s := fmt.Sprintf("%x %d", res.Mechanism.Z, len(res.Iterations))
				for _, it := range res.Iterations {
					s += fmt.Sprintf(" %d/%d", it.MasterIterations, it.ColumnsAdded)
				}
				return s
			}
			appended := false
			for trial := 0; trial < 4; trial++ {
				pr := geo.problem(jitteredPrior(rng, geo.prior, 0.001))
				exact := trial == 3
				shared := resume(pr, st, exact)
				compiled := resume(pr, donorState(), exact)
				if got, want := trace(shared), trace(compiled); got != want {
					t.Fatalf("trial %d: the shared state's resume differs from a fresh state's: ETDD %v, %v; rounds %d, %d",
						trial, shared.ETDD, compiled.ETDD, len(shared.Iterations), len(compiled.Iterations))
				}
				if shared.State.Columns() > st.Columns() {
					appended = true
				}
			}
			if !appended {
				t.Error("no resume appended a column")
			}
			if stateFingerprint(st)+compiledFingerprint(st) != before {
				t.Error("resumes wrote to the donor state")
			}
		})
	}
}

// TestSolveCGDonorResumeConcurrent runs two batches of 8 resumes from
// one shared donor state at once, as misses on a served geometry do.
// The first batch races to keep its compiled master in the state and to
// fill its bases' inverse memos; the second shares what the first kept.
// Under the race detector and bit for bit, the donor's columns, master
// iterate and pricing bases must come out as they went in, the compiled
// master as the first batch left it, and each resume must serve the Z a
// resume of its prior alone serves.
func TestSolveCGDonorResumeConcurrent(t *testing.T) {
	geo := donorGeometries(t)[0]
	donor, err := SolveCG(geo.problem(geo.prior), donorOpts)
	if err != nil {
		t.Fatal(err)
	}
	before := stateFingerprint(donor.State)
	columns := donor.State.Columns()
	resume := func(pr *Problem) (*CGResult, error) {
		opts := donorOpts
		opts.Resume = donor.State
		return SolveCG(pr, opts)
	}
	var compiled string
	for batch := 0; batch < 2; batch++ {
		var wg sync.WaitGroup
		errs := make([]error, 8)
		probs := make([]*Problem, len(errs))
		results := make([]*CGResult, len(errs))
		for w := range errs {
			probs[w] = geo.problem(jitteredPrior(rand.New(rand.NewSource(int64(10+8*batch+w))), geo.prior, 0.001))
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[w], errs[w] = resume(probs[w])
			}()
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("batch %d: concurrent resume %d: %v", batch, w, err)
			}
			alone, err := resume(probs[w])
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%x", results[w].Mechanism.Z) != fmt.Sprintf("%x", alone.Mechanism.Z) {
				t.Errorf("batch %d: concurrent resume %d served ETDD %v, alone %v", batch, w, results[w].ETDD, alone.ETDD)
			}
		}
		if got := compiledFingerprint(donor.State); batch == 0 {
			if got == "" {
				t.Fatal("no resume kept a compiled master in the donor state")
			}
			compiled = got
		} else if got != compiled {
			t.Error("concurrent resumes wrote to the donor's compiled master")
		}
	}
	if got := donor.State.Columns(); got != columns {
		t.Errorf("donor pool grew from %d to %d columns", columns, got)
	}
	if stateFingerprint(donor.State) != before {
		t.Error("concurrent resumes wrote to the donor state")
	}
}

// TestDonorResumeAllocs budgets a donor resume's allocations on the
// solve-cold benchmark's K=48 instance, at 2 pricing workers, once the
// donor's compiled master is kept and its inverse memos are filled: a
// resume of the donor's own prior, whose pricing bases stay optimal (a
// pivot would make the final extraction invert its basis), following
// another resume whose master workspace it takes over. Such a resume
// compiles no master matrix (its CSC, about 80 allocations through
// newMasterState), builds no row-major mirror or run classification (8
// allocations), allocates no normal-equations panel (2 allocations) and
// inverts no pricing basis (a worker's inversion scratch is 13
// allocations, about 69 kB). Its master holds only the support of the
// donor's iterate (96 of the pool's 600 columns), so the re-costed
// pool and the warm iterate it copies are about 25 kB smaller than a
// full pool's; selecting the support takes two allocations (the
// per-row pick and the kept iterate columns). It measures 516
// allocations and 0.22 MB (go1.24, amd64); the budgets leave less slack
// than any one of those would take.
func TestDonorResumeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	geo := donorGeometries(t)[0]
	donor, err := SolveCG(geo.problem(geo.prior), donorOpts)
	if err != nil {
		t.Fatal(err)
	}
	pr := geo.problem(geo.prior)
	opts := donorOpts
	opts.Workers = 2
	opts.Resume = donor.State
	resume := func() {
		if _, err := SolveCG(pr, opts); err != nil {
			t.Fatal(err)
		}
	}
	resume() // keeps the compiled master and fills the memos
	resume() // the first clone: leaves its workspace for the next
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, resume)
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up run
	t.Logf("donor resume: %v allocations, %d B", allocs, bytes)
	if allocs > 520 {
		t.Errorf("a donor resume allocates %v objects, want ≤ 520", allocs)
	}
	if bytes > 230_000 {
		t.Errorf("a donor resume allocates %d B, want ≤ 230000", bytes)
	}
}

// BenchmarkPricingResume measures the pricing layer of a donor resume
// on the solve-cold benchmark's K=48 instance: one priceAll of a ±0.1%
// jittered prior, at the duals of its resumed master's first solve,
// every subproblem starting from the finished donor run's final basis.
func BenchmarkPricingResume(b *testing.B) {
	geo := donorGeometries(b)[0]
	donor, err := SolveCG(geo.problem(geo.prior), donorOpts)
	if err != nil {
		b.Fatal(err)
	}
	pr := geo.problem(jitteredPrior(rand.New(rand.NewSource(46)), geo.prior, 0.001))
	// The resumed run's first master, as SolveCGCtx builds it.
	columns, support := donor.State.resumeColumns(pr)
	ms, err := newMasterState(pr, columns, startRho(pr))
	if err != nil {
		b.Fatal(err)
	}
	ms.sv.StartFrom(donor.State.master, support)
	ctx := context.Background()
	_, _, pi, _, _, _, err := ms.solve(ctx)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := newPricer(pr, CGOptions{}.withDefaults())
	if err != nil {
		b.Fatal(err)
	}
	sub.startBases = donor.State.bases
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(sub.dualBases)
		if _, _, err := sub.priceAll(ctx, pi); err != nil {
			b.Fatal(err)
		}
	}
}
