package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/discretize"
	"repro/internal/roadnet"
)

// tinyProblem builds a small D-VLP instance (K ≈ 8-12) suitable for the
// monolithic LP.
func tinyProblem(t *testing.T, seed int64, eps float64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := roadnet.Grid(rng, roadnet.GridConfig{
		Rows: 2, Cols: 2, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.2,
	})
	part, err := discretize.New(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewProblem(part, Config{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// smallProblem builds a K ≈ 30-50 instance with a non-uniform prior.
func smallProblem(t *testing.T, seed int64, eps float64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := roadnet.Grid(rng, roadnet.GridConfig{
		Rows: 3, Cols: 3, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	part, err := discretize.New(g, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	k := part.K()
	priorP := make([]float64, k)
	sum := 0.0
	for i := range priorP {
		priorP[i] = 0.2 + rng.Float64()
		sum += priorP[i]
	}
	for i := range priorP {
		priorP[i] /= sum
	}
	pr, err := NewProblem(part, Config{Epsilon: eps, PriorP: priorP})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestNewProblemValidation(t *testing.T) {
	pr := tinyProblem(t, 1, 3)
	if _, err := NewProblem(pr.Part, Config{Epsilon: 0}); err == nil {
		t.Fatal("accepted epsilon = 0")
	}
	bad := make([]float64, pr.Part.K())
	bad[0] = 0.5 // sums to 0.5
	if _, err := NewProblem(pr.Part, Config{Epsilon: 1, PriorP: bad}); err == nil {
		t.Fatal("accepted non-normalised prior")
	}
	short := []float64{1}
	if _, err := NewProblem(pr.Part, Config{Epsilon: 1, PriorQ: short}); err == nil {
		t.Fatal("accepted wrong-length prior")
	}
}

func TestCostsDiagonalZeroAndNonNegative(t *testing.T) {
	pr := smallProblem(t, 2, 3)
	k := pr.Part.K()
	for i := 0; i < k; i++ {
		if pr.Costs[i*k+i] != 0 {
			t.Fatalf("c[%d,%d] = %v, want 0 (reporting truth distorts nothing)", i, i, pr.Costs[i*k+i])
		}
		for l := 0; l < k; l++ {
			if pr.Costs[i*k+l] < 0 {
				t.Fatalf("negative cost c[%d,%d] = %v", i, l, pr.Costs[i*k+l])
			}
		}
	}
}

func TestBuildCostsMatchesSerialReference(t *testing.T) {
	pr := smallProblem(t, 3, 3)
	k := pr.Part.K()
	for trial := 0; trial < 50; trial++ {
		i, l := trial%k, (trial*7)%k
		want := 0.0
		for m := 0; m < k; m++ {
			want += pr.PriorQ[m] * math.Abs(pr.Part.MidDist(i, m)-pr.Part.MidDist(l, m))
		}
		want *= pr.PriorP[i]
		if math.Abs(pr.Costs[i*k+l]-want) > 1e-9 {
			t.Fatalf("c[%d,%d] = %v, want %v", i, l, pr.Costs[i*k+l], want)
		}
	}
}

func TestExponentialMechanismFeasible(t *testing.T) {
	pr := smallProblem(t, 4, 4)
	m := pr.ExponentialMechanism()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if v := pr.GeoIViolation(m); v > 1e-9 {
		t.Fatalf("exponential mechanism violates Geo-I by %v", v)
	}
}

func TestSolveDirectProducesFeasibleOptimum(t *testing.T) {
	pr := tinyProblem(t, 5, 3)
	res, err := SolveDirect(pr, DirectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mechanism.Validate(); err != nil {
		t.Fatal(err)
	}
	if v := pr.GeoIViolation(res.Mechanism); v > 1e-6 {
		t.Fatalf("direct optimum violates Geo-I by %v", v)
	}
	// The optimum can be no worse than the closed-form seed.
	seed := pr.ETDD(pr.ExponentialMechanism())
	if res.ETDD > seed+1e-9 {
		t.Fatalf("direct ETDD %v worse than exponential seed %v", res.ETDD, seed)
	}
}

func TestReductionPreservesOptimum(t *testing.T) {
	// The paper's central optimality claim: Algorithm 1's reduced
	// constraint set yields the same D-VLP optimum as the full O(K³) set.
	for _, eps := range []float64{1, 3, 8} {
		pr := tinyProblem(t, 6, eps)
		full, err := SolveDirect(pr, DirectOptions{FullConstraints: true})
		if err != nil {
			t.Fatalf("eps %v full: %v", eps, err)
		}
		red, err := SolveDirect(pr, DirectOptions{})
		if err != nil {
			t.Fatalf("eps %v reduced: %v", eps, err)
		}
		if red.Rows >= full.Rows {
			t.Fatalf("eps %v: reduction did not cut rows (%d vs %d)", eps, red.Rows, full.Rows)
		}
		if math.Abs(full.ETDD-red.ETDD) > 1e-6*(1+full.ETDD) {
			t.Fatalf("eps %v: reduced optimum %v != full optimum %v", eps, red.ETDD, full.ETDD)
		}
	}
}

func TestSolveCGMatchesDirect(t *testing.T) {
	pr := tinyProblem(t, 7, 3)
	direct, err := SolveDirect(pr, DirectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := SolveCG(pr, CGOptions{Xi: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.Mechanism.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(cg.ETDD-direct.ETDD) > 1e-5*(1+direct.ETDD) {
		t.Fatalf("CG ETDD %v != direct %v", cg.ETDD, direct.ETDD)
	}
	if v := pr.GeoIViolation(cg.Mechanism); v > 1e-6 {
		t.Fatalf("CG mechanism violates Geo-I by %v", v)
	}
}

func TestSolveCGDualBoundBracketsOptimum(t *testing.T) {
	pr := smallProblem(t, 8, 3)
	// RelGap keeps the runtime in check; the bracket property is what
	// matters here, and it must hold at any stopping point.
	cg, err := SolveCG(pr, CGOptions{Xi: 0, RelGap: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if cg.LowerBound > cg.ETDD+1e-6 {
		t.Fatalf("dual bound %v exceeds achieved ETDD %v", cg.LowerBound, cg.ETDD)
	}
	if ratio := cg.ApproxRatio(); !math.IsNaN(ratio) && ratio < 1-1e-6 {
		t.Fatalf("approximation ratio %v below 1", ratio)
	}
	if len(cg.Iterations) == 0 {
		t.Fatal("no iterations recorded")
	}
	// The dual gap at the stop must respect the requested RelGap.
	if gap := (cg.ETDD - cg.LowerBound) / cg.ETDD; gap > 0.011 {
		t.Fatalf("relative gap %v exceeds requested 1%%", gap)
	}
}

func TestSolveCGXiEarlyStop(t *testing.T) {
	pr := smallProblem(t, 9, 3)
	exact, err := SolveCG(pr, CGOptions{Xi: 0})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := SolveCG(pr, CGOptions{Xi: -0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(loose.Iterations) > len(exact.Iterations) {
		t.Fatalf("looser threshold took more iterations (%d vs %d)",
			len(loose.Iterations), len(exact.Iterations))
	}
	if loose.ETDD < exact.ETDD-1e-6 {
		t.Fatalf("early-stopped ETDD %v beats exact %v", loose.ETDD, exact.ETDD)
	}
	if v := pr.GeoIViolation(loose.Mechanism); v > 1e-6 {
		t.Fatalf("early-stopped mechanism violates Geo-I by %v", v)
	}
}

func TestSolveCGSequentialMatchesParallel(t *testing.T) {
	pr := tinyProblem(t, 10, 4)
	par, err := SolveCG(pr, CGOptions{Xi: 0})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SolveCG(pr, CGOptions{Xi: 0, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(par.ETDD-seq.ETDD) > 1e-9 {
		t.Fatalf("parallel ETDD %v != sequential %v", par.ETDD, seq.ETDD)
	}
}

func TestEpsilonMonotonicity(t *testing.T) {
	// Larger ε (weaker privacy) can only lower the optimal quality loss.
	var prev float64 = math.Inf(1)
	for _, eps := range []float64{1, 2, 4, 8} {
		pr := tinyProblem(t, 11, eps)
		res, err := SolveDirect(pr, DirectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.ETDD > prev+1e-7 {
			t.Fatalf("ETDD increased from %v to %v as eps grew to %v", prev, res.ETDD, eps)
		}
		prev = res.ETDD
	}
}

func TestTradeoffLowerBound(t *testing.T) {
	pr := tinyProblem(t, 12, 2)
	res, err := SolveDirect(pr, DirectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lb := pr.TradeoffLowerBound(pr.Eps)
	if lb > res.ETDD+1e-6 {
		t.Fatalf("Prop 4.5 bound %v exceeds optimum %v", lb, res.ETDD)
	}
	// The bound must decrease monotonically in ε (Section 4.4).
	prev := math.Inf(1)
	for _, eps := range []float64{0.5, 1, 2, 4, 8, 16} {
		b := pr.TradeoffLowerBound(eps)
		if b > prev+1e-9 {
			t.Fatalf("bound increased with eps: %v -> %v", prev, b)
		}
		prev = b
	}
}

func TestSampleMatchesRow(t *testing.T) {
	pr := tinyProblem(t, 13, 3)
	res, err := SolveDirect(pr, DirectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mechanism
	rng := rand.New(rand.NewSource(14))
	const trials = 30000
	i := 0
	counts := make([]int, m.K())
	for n := 0; n < trials; n++ {
		counts[m.SampleInterval(rng, i)]++
	}
	for l := 0; l < m.K(); l++ {
		got := float64(counts[l]) / trials
		want := m.Prob(i, l)
		if math.Abs(got-want) > 0.015 {
			t.Fatalf("empirical P(%d|%d) = %v, mechanism %v", l, i, got, want)
		}
	}
}

func TestSamplePreservesRelativeLocation(t *testing.T) {
	pr := tinyProblem(t, 15, 3)
	res, err := SolveDirect(pr, DirectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		truth := roadnet.RandomLocation(rng, pr.Part.G)
		obf := res.Mechanism.Sample(rng, truth)
		if !obf.Valid(pr.Part.G) {
			t.Fatalf("invalid obfuscated location %v", obf)
		}
		relT := pr.Part.RelativeLoc(truth)
		relO := pr.Part.RelativeLoc(obf)
		lenO := pr.Part.Intervals[pr.Part.Locate(obf)].Length()
		want := math.Min(relT, lenO)
		if math.Abs(relO-want) > 1e-6 {
			t.Fatalf("relative location %v after obfuscation, want %v", relO, want)
		}
	}
}

func TestNormalizeRowsProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%6) + 2
		rng := rand.New(rand.NewSource(seed))
		z := make([]float64, k*k)
		for i := range z {
			z[i] = rng.NormFloat64() // includes negatives
		}
		normalizeRows(z, k)
		for i := 0; i < k; i++ {
			sum := 0.0
			for l := 0; l < k; l++ {
				v := z[i*k+l]
				if v < 0 || math.IsNaN(v) {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformPrior(t *testing.T) {
	p := UniformPrior(7)
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("uniform prior sums to %v", sum)
	}
}
