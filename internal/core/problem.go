package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/discretize"
	"repro/internal/geoi"
	"repro/internal/roadnet"
)

// Config parameterises a D-VLP instance.
type Config struct {
	// Epsilon is the Geo-I privacy parameter in 1/km; larger values
	// disclose more (Definition 3.1).
	Epsilon float64
	// Radius is the Geo-I protection radius r in km. Non-positive means
	// "protect every pair" (r = network diameter).
	Radius float64
	// PriorP is the worker prior f_P over intervals. Nil means uniform.
	PriorP []float64
	// PriorQ is the task prior f_Q over intervals. Nil means uniform.
	PriorQ []float64
	// EpsilonAt optionally assigns a per-interval privacy parameter —
	// the paper's future-work scenario of workers with region-dependent
	// QoS/privacy preferences. A pair constraint uses the *smaller* of
	// its endpoints' values, so every interval enjoys at least its own
	// ε-guarantee toward every neighbour. Entries must be > 0; nil means
	// homogeneous Epsilon everywhere. Epsilon is still required as the
	// reference value for bounds and reporting.
	EpsilonAt []float64
}

// Problem is an assembled D-VLP instance: the discretised network and
// the quality-loss cost matrix c_{i,l} (Eq. 19). The reduced Geo-I
// constraint set of Algorithm 1 (Red) and the symmetrised interval
// metric (Sym) are built on first use: checking and pricing a given
// mechanism (GeoIViolation, ETDD, an EnforceGeoI that needs no repair)
// uses neither, so a stored mechanism is served without them.
type Problem struct {
	Part   *discretize.Partition
	Eps    float64
	Radius float64
	PriorP []float64
	PriorQ []float64
	// EpsAt holds the optional per-interval privacy parameters (nil for
	// the homogeneous case); see Config.EpsilonAt.
	EpsAt []float64

	// Costs is the K×K row-major matrix with
	// c_{i,l} = f_P(u_i) · Σ_m f_Q(u_m) · |d_G(u_i, u_m) − d_G(u_l, u_m)|
	// evaluated at interval midpoints.
	Costs []float64

	// red and sym back Red and Sym; a custom problem supplies both, so
	// its onces find them set and build nothing.
	redOnce, symOnce sync.Once
	red              *geoi.Reduced
	sym              *roadnet.DistMatrix
	// redBuilt and symBuilt record which of them a road problem has
	// built so far; see Built.
	redBuilt, symBuilt atomic.Bool
}

// Red returns the constraint-reduced Geo-I pair set of Algorithm 1,
// running the reduction on the auxiliary interval graph G′ on first
// use. Concurrent first calls run it once and share the result.
func (pr *Problem) Red() *geoi.Reduced {
	pr.redOnce.Do(func() {
		if pr.red != nil {
			return
		}
		aux := pr.Part.AuxGraph()
		if pr.EpsAt != nil {
			pr.red = geoi.ReduceHetero(pr.Part, aux, pr.Radius, pr.EpsAt)
		} else {
			pr.red = geoi.Reduce(pr.Part, aux, pr.Radius)
		}
		pr.redBuilt.Store(true)
	})
	return pr.red
}

// Sym returns the symmetrised interval metric that seeds the column
// generation and backs ExponentialMechanism, computing it from G′ on
// first use. Concurrent first calls compute it once.
func (pr *Problem) Sym() *roadnet.DistMatrix {
	pr.symOnce.Do(func() {
		if pr.sym != nil {
			return
		}
		pr.sym = geoi.SymmetrizedDistances(pr.Part.AuxGraph())
		pr.symBuilt.Store(true)
	})
	return pr.sym
}

// Built reports whether Red and Sym have been computed for this
// problem so far. A custom problem's supplied ones do not count.
func (pr *Problem) Built() (red, sym bool) {
	return pr.redBuilt.Load(), pr.symBuilt.Load()
}

// UniformPrior returns the uniform distribution over k intervals.
func UniformPrior(k int) []float64 {
	p := make([]float64, k)
	for i := range p {
		p[i] = 1 / float64(k)
	}
	return p
}

// NewProblem assembles a D-VLP instance: it validates the priors and
// builds the cost matrix (in parallel across rows). The constraint
// reduction and the symmetrised metric wait for their first use (Red,
// Sym), which a solve makes and a check of a given mechanism does not.
func NewProblem(part *discretize.Partition, cfg Config) (*Problem, error) {
	if cfg.Epsilon <= 0 {
		return nil, fmt.Errorf("core: epsilon must be positive, got %v", cfg.Epsilon)
	}
	k := part.K()
	pp, err := checkPrior("PriorP", cfg.PriorP, k)
	if err != nil {
		return nil, err
	}
	pq, err := checkPrior("PriorQ", cfg.PriorQ, k)
	if err != nil {
		return nil, err
	}

	if cfg.EpsilonAt != nil {
		if len(cfg.EpsilonAt) != k {
			return nil, fmt.Errorf("core: EpsilonAt has %d entries, want %d", len(cfg.EpsilonAt), k)
		}
		for i, e := range cfg.EpsilonAt {
			if e <= 0 || math.IsNaN(e) {
				return nil, fmt.Errorf("core: EpsilonAt[%d] = %v is not a valid privacy parameter", i, e)
			}
		}
	}

	pr := &Problem{
		Part:   part,
		Eps:    cfg.Epsilon,
		Radius: cfg.Radius,
		PriorP: pp,
		PriorQ: pq,
		EpsAt:  cfg.EpsilonAt,
		Costs:  BuildCosts(part, pp, pq),
	}
	return pr, nil
}

// reducedPairEps returns the privacy parameter of one *reduced*
// adjacency: its recorded chain requirement in the heterogeneous case,
// the homogeneous ε otherwise.
func (pr *Problem) reducedPairEps(pair geoi.UnorderedPair) float64 {
	if pair.Eps > 0 {
		return pair.Eps
	}
	return pr.Eps
}

// PairEps returns the privacy parameter governing the Geo-I constraint
// between intervals a and b: the homogeneous ε, or the smaller of the
// two intervals' values in the heterogeneous case.
func (pr *Problem) PairEps(a, b int) float64 {
	if pr.EpsAt == nil {
		return pr.Eps
	}
	return math.Min(pr.EpsAt[a], pr.EpsAt[b])
}

// MinEps returns the smallest privacy parameter in force anywhere.
func (pr *Problem) MinEps() float64 {
	if pr.EpsAt == nil {
		return pr.Eps
	}
	m := pr.EpsAt[0]
	for _, e := range pr.EpsAt[1:] {
		if e < m {
			m = e
		}
	}
	return m
}

// NewCustomProblem assembles a Problem over the same interval set but
// with caller-supplied quality-loss costs, Geo-I pair constraints and
// seeding metric. The planar (2Db) baseline uses this to run the same
// direct/column-generation solvers under Euclidean geometry: its pair
// exponents and the metric backing the exponential seed columns are
// spanner-based rather than road-based.
//
// Note that road-geometry conveniences on the result — GeoIViolation and
// TradeoffLowerBound — keep their road semantics; callers supplying a
// different geometry must check their own constraint satisfaction.
func NewCustomProblem(part *discretize.Partition, eps, radius float64, priorP, costs []float64, pairs []geoi.UnorderedPair, sym *roadnet.DistMatrix) (*Problem, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("core: epsilon must be positive, got %v", eps)
	}
	k := part.K()
	pp, err := checkPrior("PriorP", priorP, k)
	if err != nil {
		return nil, err
	}
	if len(costs) != k*k {
		return nil, fmt.Errorf("core: costs have %d entries, want %d", len(costs), k*k)
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("core: custom problem needs at least one Geo-I pair")
	}
	if sym == nil {
		return nil, fmt.Errorf("core: custom problem needs a seeding metric")
	}
	return &Problem{
		Part:   part,
		Eps:    eps,
		Radius: radius,
		PriorP: pp,
		PriorQ: UniformPrior(k),
		Costs:  costs,
		red:    &geoi.Reduced{Pairs: pairs},
		sym:    sym,
	}, nil
}

func checkPrior(name string, p []float64, k int) ([]float64, error) {
	if p == nil {
		return UniformPrior(k), nil
	}
	if len(p) != k {
		return nil, fmt.Errorf("core: %s has %d entries, want %d", name, len(p), k)
	}
	sum := 0.0
	for i, v := range p {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("core: %s[%d] = %v is not a probability", name, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("core: %s sums to %v, want 1", name, sum)
	}
	return p, nil
}

// BuildCosts computes the Eq.-(19) cost matrix at interval midpoints:
// c_{i,l} = f_P(u_i) · E_Q[ |d_G(mid_i, Q) − d_G(mid_l, Q)| ].
// Work is spread across GOMAXPROCS goroutines; rows are independent.
func BuildCosts(part *discretize.Partition, priorP, priorQ []float64) []float64 {
	k := part.K()
	costs := make([]float64, k*k)

	// Pre-collect the support of the task prior to skip zero-mass tasks.
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

	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
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
		}()
	}
	for i := 0; i < k; i++ {
		rows <- i
	}
	close(rows)
	wg.Wait()
	return costs
}

// ETDD evaluates the expected traveling-distance distortion (Eq. 18) of a
// mechanism under this problem's costs: Σ_{i,l} c_{i,l} z_{i,l}.
func (pr *Problem) ETDD(m *Mechanism) float64 {
	k := pr.Part.K()
	tot := 0.0
	for idx := 0; idx < k*k; idx++ {
		tot += pr.Costs[idx] * m.Z[idx]
	}
	return tot
}

// GeoIViolation returns the largest violation of the full (ε, r)-Geo-I
// constraint set by the mechanism: max over constrained (i, l, j) of
// z_{i,j} − e^{ε·d_min} z_{l,j}, with every pair checked against its own
// PairEps (≤ 0 means satisfied).
func (pr *Problem) GeoIViolation(m *Mechanism) float64 {
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

// TradeoffLowerBound returns the closed-form QoS/privacy bound of
// Proposition 4.5 for a given ε:
//
//	ETDD ≥ max_l min_j κ_{l,j}(ε),   κ_{l,j}(ε) = Σ_i c_{i,j} e^{−ε·d_min(u_i^e, u_l^e)}
//
// restricted to pairs within the protection radius (unconstrained pairs
// contribute nothing). Note the inner *min*: the paper prints max_j, but
// the derivation in its own proof — Σ_j κ_{l,j} z_{l,j} with Σ_j z_{l,j} = 1 —
// only supports the minimum over j, and the max_j variant is falsified by
// direct small instances. We implement the sound version.
func (pr *Problem) TradeoffLowerBound(eps float64) float64 {
	k := pr.Part.K()
	best := 0.0
	for l := 0; l < k; l++ {
		minJ := math.Inf(1)
		for j := 0; j < k; j++ {
			kappa := 0.0
			for i := 0; i < k; i++ {
				d := pr.Part.EndDistMin(i, l)
				if pr.Radius > 0 && d > pr.Radius {
					continue
				}
				kappa += pr.Costs[i*k+j] * math.Exp(-eps*d)
			}
			if kappa < minJ {
				minJ = kappa
			}
		}
		if minJ > best {
			best = minJ
		}
	}
	return best
}

// ExponentialMechanism builds the ε/2 exponential mechanism over the
// symmetrized interval metric (with ε = MinEps in the heterogeneous
// case, so the strictest regional guarantee holds everywhere). It
// satisfies (ε, r)-Geo-I for every r and serves both as the feasible
// seed of the column generation and as a closed-form fallback mechanism.
func (pr *Problem) ExponentialMechanism() *Mechanism {
	k := pr.Part.K()
	eps := pr.MinEps()
	sym := pr.Sym()
	z := make([]float64, k*k)
	for i := 0; i < k; i++ {
		sum := 0.0
		for l := 0; l < k; l++ {
			z[i*k+l] = math.Exp(-eps / 2 * sym.Dist(roadnet.NodeID(i), roadnet.NodeID(l)))
			sum += z[i*k+l]
		}
		for l := 0; l < k; l++ {
			z[i*k+l] /= sum
		}
	}
	return &Mechanism{Part: pr.Part, Z: z}
}
