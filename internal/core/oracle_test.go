package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/discretize"
	"repro/internal/geoi"
	"repro/internal/roadnet"
)

// refBuildCosts is the direct row-by-row evaluation of the Eq.-(19)
// costs that BuildCosts must reproduce bit for bit: every c_{i,l} of a
// row with positive f_P(u_i) sums, in ascending m over the positive-mass
// tasks, f_Q(u_m)·|d_G(mid_i, mid_m) − d_G(mid_l, mid_m)|.
func refBuildCosts(part *discretize.Partition, priorP, priorQ []float64) []float64 {
	k := part.K()
	costs := make([]float64, k*k)
	type taskMass struct {
		m int
		w float64
	}
	tasks := make([]taskMass, 0, k)
	for m, w := range priorQ {
		if w > 0 {
			tasks = append(tasks, taskMass{m, w})
		}
	}
	for i := 0; i < k; i++ {
		fp := priorP[i]
		if fp == 0 {
			continue
		}
		for l := 0; l < k; l++ {
			exp := 0.0
			for _, t := range tasks {
				exp += t.w * math.Abs(part.MidDist(i, t.m)-part.MidDist(l, t.m))
			}
			costs[i*k+l] = fp * exp
		}
	}
	return costs
}

// refGeoIViolation is the direct scan GeoIViolation must reproduce bit
// for bit on finite mechanisms: FullPairs and one e^{PairEps·d} per
// pair, then every j in order.
func refGeoIViolation(pr *Problem, m *Mechanism) float64 {
	k := pr.Part.K()
	worst := math.Inf(-1)
	for _, pair := range geoi.FullPairs(pr.Part, pr.Radius) {
		f := math.Exp(pr.PairEps(pair.I, pair.L) * pair.D)
		for j := 0; j < k; j++ {
			if v := m.Z[pair.I*k+j] - f*m.Z[pair.L*k+j]; v > worst {
				worst = v
			}
		}
	}
	return worst
}

// oracleInstance is one kernel-oracle case: a grid network, δ and the
// problem parameters.
type oracleInstance struct {
	name      string
	rows      int
	delta     float64
	k         int
	radius    float64
	hetero    bool
	zeroMass  bool
	taskPrior bool
}

var oracleInstances = []oracleInstance{
	{name: "K45", rows: 4, delta: 0.3, k: 45, taskPrior: true},
	{name: "K48", rows: 3, delta: 0.15, k: 48, taskPrior: true},
	{name: "K90", rows: 4, delta: 0.15, k: 90},
	{name: "K144", rows: 5, delta: 0.15, k: 144, taskPrior: true},
	{name: "K48-zero-mass", rows: 3, delta: 0.15, k: 48, zeroMass: true, taskPrior: true},
	{name: "K48-radius", rows: 3, delta: 0.15, k: 48, radius: 0.3},
	{name: "K48-hetero", rows: 3, delta: 0.15, k: 48, hetero: true},
}

func randomPrior(rng *rand.Rand, k int, zeroEvery int) []float64 {
	p := make([]float64, k)
	sum := 0.0
	for i := range p {
		if zeroEvery > 0 && i%zeroEvery == 0 {
			continue
		}
		p[i] = 0.2 + rng.Float64()
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

func (c oracleInstance) problem(t *testing.T) *Problem {
	t.Helper()
	// The network seed is perfbench's, which fixes K per tier.
	g := roadnet.Grid(rand.New(rand.NewSource(1)), roadnet.GridConfig{
		Rows: c.rows, Cols: c.rows, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	part, err := discretize.New(g, c.delta)
	if err != nil {
		t.Fatal(err)
	}
	if part.K() != c.k {
		t.Fatalf("%s: K = %d, want %d", c.name, part.K(), c.k)
	}
	rng := rand.New(rand.NewSource(int64(c.k)))
	cfg := Config{Epsilon: 4, Radius: c.radius}
	// Zero-mass cases zero every third worker row and every fifth task,
	// so the kernel sees skipped rows, skipped tasks and pairs that mix
	// a skipped row with a live one.
	zeroP, zeroQ := 0, 0
	if c.zeroMass {
		zeroP, zeroQ = 3, 5
	}
	cfg.PriorP = randomPrior(rng, c.k, zeroP)
	if c.taskPrior {
		cfg.PriorQ = randomPrior(rng, c.k, zeroQ)
	}
	if c.hetero {
		cfg.EpsilonAt = make([]float64, c.k)
		for i := range cfg.EpsilonAt {
			cfg.EpsilonAt[i] = 2 + 6*rng.Float64()
		}
	}
	pr, err := NewProblem(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestBuildCostsMatchesReference: the symmetric kernel's costs carry
// the direct evaluation's bits on every tier and corner case.
func TestBuildCostsMatchesReference(t *testing.T) {
	for _, c := range oracleInstances {
		t.Run(c.name, func(t *testing.T) {
			pr := c.problem(t)
			want := refBuildCosts(pr.Part, pr.PriorP, pr.PriorQ)
			for idx, got := range pr.Costs {
				if math.Float64bits(got) != math.Float64bits(want[idx]) {
					k := pr.Part.K()
					t.Fatalf("c[%d,%d] = %v, reference %v", idx/k, idx%k, got, want[idx])
				}
			}
		})
	}
}

// TestGeoIViolationMatchesReference: the check-table kernel returns the
// direct scan's bits on feasible, repaired-looking and grossly
// infeasible mechanisms.
func TestGeoIViolationMatchesReference(t *testing.T) {
	for _, c := range oracleInstances {
		t.Run(c.name, func(t *testing.T) {
			pr := c.problem(t)
			k := pr.Part.K()
			rng := rand.New(rand.NewSource(int64(k) + 1))
			exp := pr.ExponentialMechanism()
			leaning := append([]float64(nil), exp.Z...)
			leaning[0] += 0.05
			normalizeRows(leaning, k)
			id := make([]float64, k*k)
			for i := 0; i < k; i++ {
				id[i*k+i] = 1
			}
			random := make([]float64, k*k)
			for idx := range random {
				random[idx] = rng.Float64()
			}
			normalizeRows(random, k)
			for name, z := range map[string][]float64{"exponential": exp.Z, "leaning": leaning, "identity": id, "random": random} {
				m := &Mechanism{Part: pr.Part, Z: z}
				got, want := pr.GeoIViolation(m), refGeoIViolation(pr, m)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: GeoIViolation = %v, reference %v", name, got, want)
				}
			}
		})
	}
}

// TestNewProblemOnSharesGeometry: a problem built on another's geometry
// shares its lazily built structures and has its own priors, with costs
// bit-equal to a from-scratch build.
func TestNewProblemOnSharesGeometry(t *testing.T) {
	base := oracleInstances[1].problem(t)
	k := base.Part.K()
	base.Sym()
	priorP := randomPrior(rand.New(rand.NewSource(5)), k, 0)
	pr, err := NewProblemOn(base.Geometry, priorP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Geometry != base.Geometry || pr.Sym() != base.Sym() {
		t.Fatal("NewProblemOn did not share the geometry")
	}
	if red, sym := pr.Built(); red || !sym {
		t.Fatalf("shared geometry built red=%v sym=%v, want sym only", red, sym)
	}
	fresh, err := NewProblem(base.Part, Config{Epsilon: base.Eps, PriorP: priorP})
	if err != nil {
		t.Fatal(err)
	}
	for idx := range fresh.Costs {
		if math.Float64bits(pr.Costs[idx]) != math.Float64bits(fresh.Costs[idx]) {
			t.Fatalf("c[%d] = %v on the shared geometry, %v fresh", idx, pr.Costs[idx], fresh.Costs[idx])
		}
	}
	if &pr.PriorQ[0] == &base.PriorQ[0] || &pr.Costs[0] == &base.Costs[0] {
		t.Fatal("priors or costs shared between problems")
	}
	if _, err := NewProblemOn(base.Geometry, priorP[:k-1], nil); err == nil {
		t.Fatal("accepted a prior of the wrong length")
	}
}
