package core

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/discretize"
	"repro/internal/roadnet"
)

// rowStochasticError is the largest |Σ_l z_{i,l} − 1| over true rows.
func rowStochasticError(m *Mechanism) float64 {
	k := m.Part.K()
	worst := 0.0
	for i := 0; i < k; i++ {
		sum := 0.0
		for l := 0; l < k; l++ {
			sum += m.Z[i*k+l]
		}
		if e := math.Abs(sum - 1); e > worst {
			worst = e
		}
	}
	return worst
}

// warmTestProblem builds a randomized grid instance for the warm-CG
// correctness tests. The seed draws a 2×2 to 3×3 grid shape and the
// spacing; a positive rows/cols overrides the drawn shape.
func warmTestProblem(t *testing.T, seed int64, eps, delta float64, rows, cols int) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r, c := 2+rng.Intn(2), 2+rng.Intn(2)
	if rows > 0 {
		r, c = rows, cols
	}
	g := roadnet.Grid(rng, roadnet.GridConfig{
		Rows: r, Cols: c,
		Spacing: 0.25 + 0.1*rng.Float64(), OneWayFrac: 0.4, WeightJitter: 0.2,
	})
	part, err := discretize.New(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewProblem(part, Config{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// checkServedWarm applies the serving layer's EnforceGeoI repair to a
// warm CG result and checks what would be served: Geo-I violation and
// row-stochastic error within 1e-9, and a resumable column pool.
func checkServedWarm(t *testing.T, seed int64, pr *Problem, warm *CGResult) {
	t.Helper()
	fixed, _, err := pr.EnforceGeoI(warm.Mechanism, GeoITol)
	if err != nil {
		t.Fatalf("seed %d: enforce: %v", seed, err)
	}
	// GeoIViolation is signed (negative means strict slack); only actual
	// violations count.
	if v := pr.GeoIViolation(fixed); v > 1e-9 {
		t.Errorf("seed %d: served Geo-I violation %g", seed, v)
	}
	if e := rowStochasticError(fixed); e > 1e-9 {
		t.Errorf("seed %d: served row-stochastic error %g", seed, e)
	}
	if warm.State == nil || warm.State.Columns() == 0 {
		t.Errorf("seed %d: warm result carries no resumable state", seed)
	}
}

// TestSolveCGWarmMatchesDirect is the warm-start correctness property
// against the exact oracle: on randomized 2×2 networks (K ≤ 16) the
// persistent, warm-started column generation must reach the optimum of
// the monolithic LP (SolveDirect) within tolerance, and serve a
// mechanism that passes the Geo-I repair gate cleanly.
func TestSolveCGWarmMatchesDirect(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		eps  float64
	}{
		{101, 3}, {102, 5}, {103, 8}, {104, 2},
	} {
		pr := warmTestProblem(t, tc.seed, tc.eps, 0.22, 2, 2)
		warm, err := SolveCG(pr, CGOptions{})
		if err != nil {
			t.Fatalf("seed %d: warm: %v", tc.seed, err)
		}
		direct, err := SolveDirect(pr, DirectOptions{})
		if err != nil {
			t.Fatalf("seed %d: direct: %v", tc.seed, err)
		}
		if d := math.Abs(warm.ETDD - direct.ETDD); d > 1e-5*(1+direct.ETDD) {
			t.Errorf("seed %d (K=%d): warm ETDD %v vs direct %v (diff %g)",
				tc.seed, pr.Part.K(), warm.ETDD, direct.ETDD, d)
		}
		checkServedWarm(t, tc.seed, pr, warm)
	}
}

// TestSolveCGWarmCertifiesOptimality covers instances too large for the
// direct oracle (K ≈ 27-28) with the certificate column generation
// carries itself: at Xi = 0 the achieved ETDD must meet the Lagrangian
// lower bound (Thm 4.4) within tolerance.
func TestSolveCGWarmCertifiesOptimality(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		eps  float64
	}{
		{101, 3}, {102, 5}, {103, 8}, {104, 2},
	} {
		pr := warmTestProblem(t, tc.seed, tc.eps, 0.2, 0, 0)
		warm, err := SolveCG(pr, CGOptions{})
		if err != nil {
			t.Fatalf("seed %d: warm: %v", tc.seed, err)
		}
		if gap := warm.ETDD - warm.LowerBound; gap > 1e-5*(1+warm.ETDD) {
			t.Errorf("seed %d (K=%d): ETDD %v exceeds lower bound %v by %g",
				tc.seed, pr.Part.K(), warm.ETDD, warm.LowerBound, gap)
		}
		checkServedWarm(t, tc.seed, pr, warm)
	}
}

// TestSolveCGResumeFromState checks that a run resumed from a previous
// run's column pool reaches the same answer, in no more rounds than the
// original.
func TestSolveCGResumeFromState(t *testing.T) {
	pr := smallProblem(t, 31, 5)
	first, err := SolveCG(pr, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.State == nil {
		t.Fatal("no state on first run")
	}
	resumed, err := SolveCG(pr, CGOptions{Resume: first.State})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resumed.ETDD-first.ETDD) > 1e-5*(1+first.ETDD) {
		t.Fatalf("resumed ETDD %v vs first %v", resumed.ETDD, first.ETDD)
	}
	if len(resumed.Iterations) > len(first.Iterations) {
		t.Fatalf("resume took %d rounds, original %d", len(resumed.Iterations), len(first.Iterations))
	}
}

// TestSolveCGResumeMismatchedStateIgnored: a state snapshot from a
// different-sized problem must be ignored, not crash or corrupt.
func TestSolveCGResumeMismatchedStateIgnored(t *testing.T) {
	big := smallProblem(t, 32, 5)
	tiny := tinyProblem(t, 33, 5)
	donor, err := SolveCG(big, CGOptions{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveCG(tiny, CGOptions{Resume: donor.State})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SolveCG(tiny, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ETDD-ref.ETDD) > 1e-6*(1+ref.ETDD) {
		t.Fatalf("mismatched resume changed the answer: %v vs %v", res.ETDD, ref.ETDD)
	}
}

// TestWarmPricingRoundAllocs is the allocation-regression guard on the
// pricing hot path: once the per-worker Prepared instances and per-l
// bases exist, a steady-state subproblem solve allocates only the
// recovered column itself.
func TestWarmPricingRoundAllocs(t *testing.T) {
	pr := smallProblem(t, 35, 5)
	k := pr.Part.K()
	opts := CGOptions{Workers: 1}.withDefaults()
	p, err := newPricer(pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	wk := p.workers[0]
	pi := make([]float64, k)
	for i := range pi {
		pi[i] = 0.01 * float64(i%7)
	}
	ctx := context.Background()
	// Warm every subproblem's basis once.
	for l := 0; l < k; l++ {
		if _, _, err := p.priceOne(ctx, wk, l, pi); err != nil {
			t.Fatal(err)
		}
	}
	l := 0
	allocs := testing.AllocsPerRun(20, func() {
		pi[3] += 1e-4 // drift the duals slightly, as rounds do
		if _, _, err := p.priceOne(ctx, wk, l, pi); err != nil {
			t.Fatal(err)
		}
		l = (l + 1) % k
	})
	// Budget: the k-float z slice for the returned column plus a few
	// words of interface/closure noise — nothing proportional to the LP.
	if allocs > 8 {
		t.Fatalf("warm pricing solve allocates %v objects per run, want ≤ 8", allocs)
	}
}

// TestSolveCGWarmSequentialMatchesParallel guards the per-worker
// Prepared instances against worker-count dependence: the warm pipeline
// must give the same answer with one worker and with many.
func TestSolveCGWarmSequentialMatchesParallel(t *testing.T) {
	pr := smallProblem(t, 34, 4)
	seq, err := SolveCG(pr, CGOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SolveCG(pr, CGOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq.ETDD-par.ETDD) > 1e-6*(1+seq.ETDD) {
		t.Fatalf("sequential ETDD %v vs parallel %v", seq.ETDD, par.ETDD)
	}
}

// TestPriceOneWarmColumnOutsideLambdaResolvedCold replays sub_93 of the
// experiments' Full-profile fig13cd solve at δ 0.2 and ξ −0.006 (seed
// 42): the right-hand side −w = π − c_93 of each of its 33 pricing
// solves, in order, as the run handed them to priceOne. The first solve
// is cold and each later one warm-starts from the basis the one before
// it left, so only the whole chain rebuilds the basis of the last
// solve. That warm solve takes 84 pivots and ends optimal on a column
// that leaves Λ_93 by 2.4e-7, past the check's 1e-7; the cold solve of
// the same subproblem (325 pivots) lands inside it, its largest
// violation 1.1e-16. The costs are zeroed, so priceOne sets each
// captured right-hand side bit for bit.
func TestPriceOneWarmColumnOutsideLambdaResolvedCold(t *testing.T) {
	f, err := os.Open("testdata/fig13cd_sub93.json.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var chain struct {
		L   int         `json:"l"`
		RHS [][]float64 `json:"rhs"`
	}
	if err := json.NewDecoder(zr).Decode(&chain); err != nil {
		t.Fatal(err)
	}
	// The Full profile's Rome-like map, drawn first from seed 42+1.
	g := roadnet.RomeLike(rand.New(rand.NewSource(43)), roadnet.RomeLikeConfig{
		DowntownRows: 4, DowntownCols: 4, DowntownSpacing: 0.3,
		RingRadiusFactor: 1.6, Radials: 5, SuburbDepth: 2,
		SuburbSpacing: 0.5, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	part, err := discretize.New(g, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewProblem(part, Config{Epsilon: 5})
	if err != nil {
		t.Fatal(err)
	}
	if k := pr.Part.K(); k != 224 || len(chain.RHS[0]) != k {
		t.Fatalf("K = %d, capture has %d entries per solve, want 224", k, len(chain.RHS[0]))
	}
	for i := range pr.Costs {
		pr.Costs[i] = 0
	}
	p, err := newPricer(pr, CGOptions{Workers: 1}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for n, rhs := range chain.RHS {
		_, col, err := p.priceOne(context.Background(), p.workers[0], chain.L, rhs)
		if err != nil {
			t.Fatalf("solve %d of %d: %v", n+1, len(chain.RHS), err)
		}
		if !p.feasible(col.z) {
			t.Fatalf("solve %d of %d: column outside Λ_%d", n+1, len(chain.RHS), chain.L)
		}
	}
}
