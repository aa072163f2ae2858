package planar

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/geom"
	"repro/internal/roadnet"
)

func testPartition(t *testing.T, seed int64, delta float64) *discretize.Partition {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := roadnet.Grid(rng, roadnet.GridConfig{
		Rows: 2, Cols: 2, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.2,
	})
	part, err := discretize.New(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// solve2DDirect solves the problem Solve2D builds (radius 0, uniform
// prior) by the monolithic LP, the oracle for the CG solve.
func solve2DDirect(t *testing.T, part *discretize.Partition, eps float64) *Result {
	t.Helper()
	prior := core.UniformPrior(part.K())
	pr, err := spannerProblem(part, eps, 0, prior)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveDirect(pr, core.DirectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &Result{Mechanism: res.Mechanism, EuclidLoss: EuclidLoss(part, res.Mechanism, prior)}
}

// MaxEuclidViolation measures the largest violation of ε-Geo-I under the
// Euclidean metric by the mechanism (≤ 0 means satisfied): for every
// ordered interval pair within radius, z_{i,j} ≤ e^{ε‖x_i−x_l‖} z_{l,j}.
func MaxEuclidViolation(part *discretize.Partition, m *core.Mechanism, eps, radius float64) float64 {
	pts := midpoints(part)
	k := part.K()
	worst := math.Inf(-1)
	for i := 0; i < k; i++ {
		for l := 0; l < k; l++ {
			if i == l {
				continue
			}
			d := geom.Dist(pts[i], pts[l])
			if radius > 0 && d > radius {
				continue
			}
			f := math.Exp(eps * d)
			for j := 0; j < k; j++ {
				if v := m.Prob(i, j) - f*m.Prob(l, j); v > worst {
					worst = v
				}
			}
		}
	}
	return worst
}

// ExponentialMechanism2D is the discrete planar analogue of the CCS'13
// planar Laplace mechanism over the interval alphabet: row i draws
// interval l with probability ∝ e^{−(ε/2)·‖x_i − x_l‖}. The ε/2 exponent
// absorbs the normalisation so the result satisfies ε-Geo-I under the
// Euclidean metric.
func ExponentialMechanism2D(part *discretize.Partition, eps float64) *core.Mechanism {
	pts := midpoints(part)
	k := part.K()
	z := make([]float64, k*k)
	for i := 0; i < k; i++ {
		sum := 0.0
		for l := 0; l < k; l++ {
			z[i*k+l] = math.Exp(-eps / 2 * geom.Dist(pts[i], pts[l]))
			sum += z[i*k+l]
		}
		for l := 0; l < k; l++ {
			z[i*k+l] /= sum
		}
	}
	return &core.Mechanism{Part: part, Z: z}
}

func TestSpannerPairsStretchProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 25)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 2, Y: rng.Float64() * 2}
	}
	const stretch = 1.3
	pairs := SpannerPairs(pts, stretch)
	if len(pairs) == 0 {
		t.Fatal("empty spanner")
	}
	// Spanner property: every pair connected within stretch × Euclidean.
	m := spannerMetric(pts, pairs)
	for a := 0; a < len(pts); a++ {
		for b := 0; b < len(pts); b++ {
			if a == b {
				continue
			}
			de := geom.Dist(pts[a], pts[b])
			ds := m.Dist(roadnet.NodeID(a), roadnet.NodeID(b))
			if ds > stretch*de+1e-9 {
				t.Fatalf("pair (%d,%d): spanner dist %v > %v × Euclid %v", a, b, ds, stretch, de)
			}
			if ds < de-1e-9 {
				t.Fatalf("pair (%d,%d): spanner dist %v below Euclid %v", a, b, ds, de)
			}
		}
	}
	// And it must actually be sparse: far fewer than all pairs.
	if len(pairs) >= len(pts)*(len(pts)-1)/2 {
		t.Fatalf("spanner kept all %d pairs", len(pairs))
	}
}

func TestSolve2DSatisfiesStretchedEuclidGeoI(t *testing.T) {
	part := testPartition(t, 2, 0.3)
	const eps = 3.0
	res := solve2DDirect(t, part, eps)
	if err := res.Mechanism.Validate(); err != nil {
		t.Fatal(err)
	}
	// CCS'14 semantics: exact ε w.r.t. the spanner metric, hence ε·t
	// w.r.t. the Euclidean one.
	if v := MaxEuclidViolation(part, res.Mechanism, eps*spannerStretch, 0); v > 1e-6 {
		t.Fatalf("2Db mechanism violates (ε·t)-Euclidean Geo-I by %v", v)
	}
}

func TestSolve2DOptimisesEuclidLoss(t *testing.T) {
	part := testPartition(t, 3, 0.3)
	const eps = 4.0
	res := solve2DDirect(t, part, eps)
	expo := ExponentialMechanism2D(part, eps)
	if res.EuclidLoss > EuclidLoss(part, expo, nil)+1e-9 {
		t.Fatalf("optimal 2Db loss %v worse than exponential baseline %v",
			res.EuclidLoss, EuclidLoss(part, expo, nil))
	}
}

func TestSolve2DCGMatchesDirect(t *testing.T) {
	part := testPartition(t, 4, 0.3)
	const eps = 3.0
	direct := solve2DDirect(t, part, eps)
	cg, err := Solve2D(part, eps, 0, nil, Options{CG: core.CGOptions{Xi: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.EuclidLoss-cg.EuclidLoss) > 1e-4*(1+direct.EuclidLoss) {
		t.Fatalf("CG loss %v != direct %v", cg.EuclidLoss, direct.EuclidLoss)
	}
}

func TestSolve2DEpsilonMonotone(t *testing.T) {
	part := testPartition(t, 5, 0.3)
	prev := math.Inf(1)
	for _, eps := range []float64{1, 3, 9} {
		res := solve2DDirect(t, part, eps)
		if res.EuclidLoss > prev+1e-9 {
			t.Fatalf("Euclid loss rose with eps: %v -> %v", prev, res.EuclidLoss)
		}
		prev = res.EuclidLoss
	}
}

func TestExponentialMechanism2D(t *testing.T) {
	part := testPartition(t, 6, 0.3)
	const eps = 5.0
	m := ExponentialMechanism2D(part, eps)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if v := MaxEuclidViolation(part, m, eps, 0); v > 1e-9 {
		t.Fatalf("planar exponential mechanism violates Geo-I by %v", v)
	}
}

func TestSolve2DRejectsBadEpsilon(t *testing.T) {
	part := testPartition(t, 7, 0.3)
	if _, err := Solve2D(part, 0, 0, nil, Options{}); err == nil {
		t.Fatal("accepted epsilon = 0")
	}
}
