package core

import (
	"fmt"
	"math"
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

// Geometry is the prior-independent half of a D-VLP instance: the
// discretised network, the privacy parameters, and everything derived
// from them alone (§4.3) — the reduced Geo-I constraint set of
// Algorithm 1 (Red), the symmetrised interval metric (Sym) and the
// full-constraint check table behind GeoIViolation. Each is built on
// first use, once, and is read-only afterwards, so any number of
// Problems with different priors may share one Geometry from any number
// of goroutines. Checking a given mechanism (GeoIViolation, an
// EnforceGeoI that needs no repair) builds only the check table, so a
// stored mechanism is served without Red or Sym.
type Geometry struct {
	Part   *discretize.Partition
	Eps    float64
	Radius float64
	// EpsAt holds the optional per-interval privacy parameters (nil for
	// the homogeneous case); see Config.EpsilonAt.
	EpsAt []float64

	// red, sym and check back Red, Sym and GeoIViolation; a custom
	// problem supplies red and sym, so their onces find them set and
	// build nothing.
	redOnce, symOnce, checkOnce sync.Once
	red                         *geoi.Reduced
	sym                         *roadnet.DistMatrix
	check                       *checkTable
	// redBuilt and symBuilt record which of them a road problem has
	// built so far; see Built.
	redBuilt, symBuilt atomic.Bool
}

// Problem is an assembled D-VLP instance: a Geometry plus the priors and
// the quality-loss cost matrix c_{i,l} (Eq. 19) they determine. Only
// this half depends on the priors; NewProblemOn builds it on an existing
// Geometry.
type Problem struct {
	*Geometry
	PriorP []float64
	PriorQ []float64

	// Costs is the K×K row-major matrix with
	// c_{i,l} = f_P(u_i) · Σ_m f_Q(u_m) · |d_G(u_i, u_m) − d_G(u_l, u_m)|
	// evaluated at interval midpoints.
	Costs []float64
}

// checkTable is the full (ε, r)-Geo-I constraint set in geoi.FullPairs
// order: the ordered pairs (i, l[n]) for n in [start[i], start[i+1]),
// each with its factor f[n] = e^{PairEps(i, l)·d_min(u_i^e, u_l^e)}.
type checkTable struct {
	start []int
	l     []int
	f     []float64
}

// Red returns the constraint-reduced Geo-I pair set of Algorithm 1,
// running the reduction on the auxiliary interval graph G′ on first
// use. Concurrent first calls run it once and share the result.
func (g *Geometry) Red() *geoi.Reduced {
	g.redOnce.Do(func() {
		if g.red != nil {
			return
		}
		aux := g.Part.AuxGraph()
		if g.EpsAt != nil {
			g.red = geoi.ReduceHetero(g.Part, aux, g.Radius, g.EpsAt)
		} else {
			g.red = geoi.Reduce(g.Part, aux, g.Radius)
		}
		g.redBuilt.Store(true)
	})
	return g.red
}

// Sym returns the symmetrised interval metric that seeds the column
// generation and backs ExponentialMechanism, computing it from G′ on
// first use. Concurrent first calls compute it once.
func (g *Geometry) Sym() *roadnet.DistMatrix {
	g.symOnce.Do(func() {
		if g.sym != nil {
			return
		}
		g.sym = geoi.SymmetrizedDistances(g.Part.AuxGraph())
		g.symBuilt.Store(true)
	})
	return g.sym
}

// Built reports whether Red and Sym have been computed for this
// geometry so far. A custom problem's supplied ones do not count.
//
//lint:ignore deadcode a test probe of lazy derivation, used by core's problem and oracle tests and server's durable read-through tests
func (g *Geometry) Built() (red, sym bool) {
	return g.redBuilt.Load(), g.symBuilt.Load()
}

// checks returns the full-constraint check table, building it on first
// use. Concurrent first calls build it once.
func (g *Geometry) checks() *checkTable {
	g.checkOnce.Do(func() {
		k := g.Part.K()
		pairs := geoi.FullPairs(g.Part, g.Radius)
		t := &checkTable{start: make([]int, k+1), l: make([]int, len(pairs)), f: make([]float64, len(pairs))}
		for n, p := range pairs {
			t.start[p.I+1] = n + 1
			t.l[n] = p.L
			t.f[n] = math.Exp(g.PairEps(p.I, p.L) * p.D)
		}
		// Rows without a pair end where the previous row ended.
		for i := 1; i <= k; i++ {
			if t.start[i] < t.start[i-1] {
				t.start[i] = t.start[i-1]
			}
		}
		g.check = t
	})
	return g.check
}

// UniformPrior returns the uniform distribution over k intervals.
func UniformPrior(k int) []float64 {
	p := make([]float64, k)
	for i := range p {
		p[i] = 1 / float64(k)
	}
	return p
}

// NewProblem assembles a D-VLP instance: it validates the parameters
// and the priors and builds the cost matrix. The constraint reduction,
// the symmetrised metric and the check table wait for their first use
// (Red, Sym, GeoIViolation), which a solve makes and a check of a given
// mechanism makes only of the table.
func NewProblem(part *discretize.Partition, cfg Config) (*Problem, error) {
	if cfg.Epsilon <= 0 {
		return nil, fmt.Errorf("core: epsilon must be positive, got %v", cfg.Epsilon)
	}
	k := part.K()
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
	geo := &Geometry{Part: part, Eps: cfg.Epsilon, Radius: cfg.Radius, EpsAt: cfg.EpsilonAt}
	return NewProblemOn(geo, cfg.PriorP, cfg.PriorQ)
}

// NewProblemOn assembles a D-VLP instance with the given priors (nil
// means uniform) on an existing Geometry, typically another Problem's:
// it validates the priors and builds the cost matrix, and shares
// everything else — including whatever the geometry has built so far.
func NewProblemOn(geo *Geometry, priorP, priorQ []float64) (*Problem, error) {
	k := geo.Part.K()
	pp, err := checkPrior("PriorP", priorP, k)
	if err != nil {
		return nil, err
	}
	pq, err := checkPrior("PriorQ", priorQ, k)
	if err != nil {
		return nil, err
	}
	return &Problem{
		Geometry: geo,
		PriorP:   pp,
		PriorQ:   pq,
		Costs:    BuildCosts(geo.Part, pp, pq),
	}, nil
}

// reducedPairEps returns the privacy parameter of one *reduced*
// adjacency: its recorded chain requirement in the heterogeneous case,
// the homogeneous ε otherwise.
func (g *Geometry) reducedPairEps(pair geoi.UnorderedPair) float64 {
	if pair.Eps > 0 {
		return pair.Eps
	}
	return g.Eps
}

// PairEps returns the privacy parameter governing the Geo-I constraint
// between intervals a and b: the homogeneous ε, or the smaller of the
// two intervals' values in the heterogeneous case.
func (g *Geometry) PairEps(a, b int) float64 {
	if g.EpsAt == nil {
		return g.Eps
	}
	return math.Min(g.EpsAt[a], g.EpsAt[b])
}

// MinEps returns the smallest privacy parameter in force anywhere.
func (g *Geometry) MinEps() float64 {
	if g.EpsAt == nil {
		return g.Eps
	}
	m := g.EpsAt[0]
	for _, e := range g.EpsAt[1:] {
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
		Geometry: &Geometry{
			Part:   part,
			Eps:    eps,
			Radius: radius,
			red:    &geoi.Reduced{Pairs: pairs},
			sym:    sym,
		},
		PriorP: pp,
		PriorQ: UniformPrior(k),
		Costs:  costs,
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
// c_{i,l} = f_P(u_i) · s_{i,l} with s_{i,l} = E_Q[ |d_G(mid_i, Q) − d_G(mid_l, Q)| ].
// s is symmetric, so each unordered pair's sum is computed once (four
// l's at a time) and scaled into both c_{i,l} and c_{l,i}; rows with
// f_P(u_i) = 0 stay zero. Every sum still adds, in ascending m, the
// positive-mass tasks' terms w_m · |d_im − d_lm|, so each cost has the
// bits of the direct row-by-row evaluation.
func BuildCosts(part *discretize.Partition, priorP, priorQ []float64) []float64 {
	k := part.K()
	costs := make([]float64, k*k)

	// Gather the task prior's support and, per interval, its midpoint
	// distances to those tasks, so the kernel reads contiguous rows.
	w := make([]float64, 0, k)
	tasks := make([]int, 0, k)
	for m, q := range priorQ {
		if q > 0 {
			w = append(w, q)
			tasks = append(tasks, m)
		}
	}
	n := len(w)
	d := make([]float64, k*n)
	for i := 0; i < k; i++ {
		row := d[i*n : (i+1)*n]
		for t, m := range tasks {
			row[t] = part.MidDist(i, m)
		}
	}
	put := func(i, l int, s float64) {
		if fp := priorP[i]; fp != 0 {
			costs[i*k+l] = fp * s
		}
		if fp := priorP[l]; fp != 0 && l != i {
			costs[l*k+i] = fp * s
		}
	}

	ls := make([]int, 0, k)
	for i := 0; i < k; i++ {
		di := d[i*n:][:n]
		ls = ls[:0]
		for l := i; l < k; l++ {
			if priorP[i] != 0 || priorP[l] != 0 {
				ls = append(ls, l)
			}
		}
		c := 0
		for ; c+4 <= len(ls); c += 4 {
			l0, l1, l2, l3 := ls[c], ls[c+1], ls[c+2], ls[c+3]
			d0, d1, d2, d3 := d[l0*n:][:n], d[l1*n:][:n], d[l2*n:][:n], d[l3*n:][:n]
			var s0, s1, s2, s3 float64
			for t := 0; t < n; t++ {
				wt, x := w[t], di[t]
				s0 += wt * math.Abs(x-d0[t])
				s1 += wt * math.Abs(x-d1[t])
				s2 += wt * math.Abs(x-d2[t])
				s3 += wt * math.Abs(x-d3[t])
			}
			put(i, l0, s0)
			put(i, l1, s1)
			put(i, l2, s2)
			put(i, l3, s3)
		}
		for ; c < len(ls); c++ {
			l := ls[c]
			dl := d[l*n:][:n]
			s := 0.0
			for t := 0; t < n; t++ {
				s += w[t] * math.Abs(di[t]-dl[t])
			}
			put(i, l, s)
		}
	}
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
// PairEps (≤ 0 means satisfied). A mechanism with a NaN or infinite
// entry scores +Inf: no comparison can certify it.
func (g *Geometry) GeoIViolation(m *Mechanism) float64 {
	for _, z := range m.Z {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			return math.Inf(1)
		}
	}
	t := g.checks()
	k := g.Part.K()
	// Four running maxima, one per lane of j mod 4; a max is the same in
	// any order, so this is the value a single scan finds.
	w0, w1, w2, w3 := math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)
	for i := 0; i < k; i++ {
		zi := m.Z[i*k : (i+1)*k]
		for n := t.start[i]; n < t.start[i+1]; n++ {
			l, f := t.l[n], t.f[n]
			zl := m.Z[l*k : (l+1)*k]
			j := 0
			for ; j+4 <= k; j += 4 {
				a, b := (*[4]float64)(zi[j:]), (*[4]float64)(zl[j:])
				if v := a[0] - f*b[0]; v > w0 {
					w0 = v
				}
				if v := a[1] - f*b[1]; v > w1 {
					w1 = v
				}
				if v := a[2] - f*b[2]; v > w2 {
					w2 = v
				}
				if v := a[3] - f*b[3]; v > w3 {
					w3 = v
				}
			}
			for ; j < k; j++ {
				if v := zi[j] - f*zl[j]; v > w0 {
					w0 = v
				}
			}
		}
	}
	for _, w := range [...]float64{w1, w2, w3} {
		if w > w0 {
			w0 = w
		}
	}
	return w0
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
func (g *Geometry) ExponentialMechanism() *Mechanism {
	k := g.Part.K()
	eps := g.MinEps()
	sym := g.Sym()
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
	return &Mechanism{Part: g.Part, Z: z}
}
