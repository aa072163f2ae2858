// Package planar implements the paper's baseline "2Db": the optimal
// planar geo-indistinguishable mechanism of Bordenabe, Chatzikokolakis
// and Palamidessi (CCS'14), which assumes workers move freely on the 2D
// plane. Locations are the road intervals' planar midpoints; quality
// loss and privacy are both measured by Euclidean distance; and the LP's
// O(K³) Euclidean Geo-I constraints are cut down with the CCS'14 greedy
// spanner trick. Because the mechanism's output alphabet is restricted
// to on-network points (the interval midpoints), the paper's footnote-3
// snap-to-road step is the identity here — the adversary and the server
// evaluate the reported interval directly.
//
// Solve2D solves the LP by column generation. The package's tests check
// it against the monolithic LP (core.SolveDirect) on the same problem,
// and against a discrete planar exponential mechanism (Andrés et al.,
// CCS'13) that they build themselves.
package planar

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/geoi"
	"repro/internal/geom"
	"repro/internal/roadnet"
)

// spannerStretch is the greedy-spanner dilation t > 1. Following
// CCS'14, constraints are placed on spanner edges at the nominal ε with
// Euclidean exponents; chains certify ε-Geo-I w.r.t. the spanner
// metric, i.e. (ε·t)-Geo-I w.r.t. the Euclidean one — the baseline's
// documented approximation.
const spannerStretch = 1.3

// Options tune the 2Db solve.
type Options struct {
	// CG passes options to the column-generation solver.
	CG core.CGOptions
}

// Result carries the solved planar mechanism and its Euclidean loss.
type Result struct {
	Mechanism *core.Mechanism
	// EuclidLoss is the mechanism's expected Euclidean distortion
	// E‖x − x̃‖, the objective 2Db optimises.
	EuclidLoss float64
}

// Solve2D computes the 2Db mechanism for the given privacy parameters
// and worker prior (nil = uniform). radius ≤ 0 constrains all pairs.
func Solve2D(part *discretize.Partition, eps, radius float64, priorP []float64, opts Options) (*Result, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("planar: epsilon must be positive, got %v", eps)
	}
	if priorP == nil {
		priorP = core.UniformPrior(part.K())
	}
	pr, err := spannerProblem(part, eps, radius, priorP)
	if err != nil {
		return nil, err
	}
	res, err := core.SolveCG(pr, opts.CG)
	if err != nil {
		return nil, err
	}
	return &Result{Mechanism: res.Mechanism, EuclidLoss: EuclidLoss(part, res.Mechanism, priorP)}, nil
}

// spannerProblem builds the 2Db LP: Euclidean costs under priorP, and
// Geo-I constraints on the edges of the greedy spanner.
func spannerProblem(part *discretize.Partition, eps, radius float64, priorP []float64) (*core.Problem, error) {
	pts := midpoints(part)
	pairs := SpannerPairs(pts, spannerStretch)
	// Spanner metric for seeding: shortest paths over the spanner edges
	// (a true metric, and spanner-edge consistent).
	sym := spannerMetric(pts, pairs)
	return core.NewCustomProblem(part, eps, radius, priorP, euclidCosts(pts, priorP), pairs, sym)
}

// laneOffset separates the two directions of a two-way street in the
// plane (2 m), like physical lanes. Without it, anti-parallel intervals
// occupy identical planar points, forcing exact-equality Geo-I rows that
// both degrade the LP's conditioning and are geometrically artificial.
const laneOffset = 0.002

// midpoints returns the planar positions of all interval midpoints, each
// shifted laneOffset to the right of its direction of travel.
func midpoints(part *discretize.Partition) []geom.Point {
	pts := make([]geom.Point, part.K())
	for i, iv := range part.Intervals {
		p := iv.Mid().Point(part.G)
		e := part.G.Edge(iv.Edge)
		dir := part.G.Node(e.To).Pos.Sub(part.G.Node(e.From).Pos)
		if n := dir.Norm(); n > 0 {
			// Right-hand perpendicular of (x, y) is (y, −x).
			perp := geom.Point{X: dir.Y / n, Y: -dir.X / n}
			p = p.Add(perp.Scale(laneOffset))
		}
		pts[i] = p
	}
	return pts
}

// euclidCosts is the 2Db objective matrix: c[i,l] = f_P(i)·‖x_i − x_l‖.
func euclidCosts(pts []geom.Point, priorP []float64) []float64 {
	k := len(pts)
	costs := make([]float64, k*k)
	for i := 0; i < k; i++ {
		if priorP[i] == 0 {
			continue
		}
		for l := 0; l < k; l++ {
			costs[i*k+l] = priorP[i] * geom.Dist(pts[i], pts[l])
		}
	}
	return costs
}

// EuclidLoss evaluates E‖x − x̃‖ of a mechanism under the prior.
func EuclidLoss(part *discretize.Partition, m *core.Mechanism, priorP []float64) float64 {
	pts := midpoints(part)
	k := part.K()
	if priorP == nil {
		priorP = core.UniformPrior(k)
	}
	tot := 0.0
	for i := 0; i < k; i++ {
		for l := 0; l < k; l++ {
			tot += priorP[i] * m.Prob(i, l) * geom.Dist(pts[i], pts[l])
		}
	}
	return tot
}

// spannerEdge is one undirected spanner edge stored in adjacency form.
type spannerEdge struct {
	to int
	d  float64
}

// SpannerPairs builds a greedy t-spanner over the points: candidate
// pairs are scanned in increasing Euclidean length, and a pair becomes a
// spanner edge when the current spanner cannot connect it within
// t × its Euclidean distance. The result is the CCS'14 constraint set —
// chaining edge constraints bounds every pair's exponent by t×Euclidean.
func SpannerPairs(pts []geom.Point, stretch float64) []geoi.UnorderedPair {
	k := len(pts)
	type cand struct {
		a, b int
		d    float64
	}
	cands := make([]cand, 0, k*(k-1)/2)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			cands = append(cands, cand{a, b, geom.Dist(pts[a], pts[b])})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })

	adj := make([][]spannerEdge, k)
	var pairs []geoi.UnorderedPair
	dist := make([]float64, k)
	for _, c := range cands {
		if spannerDist(adj, dist, c.a, c.b, stretch*c.d) <= stretch*c.d {
			continue
		}
		// Anti-parallel road edges put two intervals at the same planar
		// midpoint; floor their distance so downstream graph weights and
		// Geo-I exponents stay positive (the constraint z_a ≈ z_b is
		// preserved to within solver tolerance).
		d := math.Max(c.d, coincidentFloor)
		adj[c.a] = append(adj[c.a], spannerEdge{to: c.b, d: d})
		adj[c.b] = append(adj[c.b], spannerEdge{to: c.a, d: d})
		pairs = append(pairs, geoi.UnorderedPair{A: c.a, B: c.b, D: d})
	}
	return pairs
}

// coincidentFloor keeps coincident planar points at a strictly positive
// nominal distance (1 micrometre).
const coincidentFloor = 1e-9

// spannerDist runs a bounded Dijkstra over the current spanner and
// returns the distance from a to b, or +Inf once it exceeds the limit.
func spannerDist(adj [][]spannerEdge, dist []float64, a, b int, limit float64) float64 {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[a] = 0
	// Simple O(V²) Dijkstra; spanner degree is small and K is moderate.
	visited := make([]bool, len(dist))
	for {
		u, best := -1, limit
		for i, d := range dist {
			if !visited[i] && d <= best {
				u, best = i, d
			}
		}
		if u < 0 {
			return math.Inf(1)
		}
		if u == b {
			return dist[u]
		}
		visited[u] = true
		for _, e := range adj[u] {
			if nd := dist[u] + e.d; nd < dist[e.to] {
				dist[e.to] = nd
			}
		}
	}
}

// spannerMetric returns all-pairs shortest distances over the spanner
// edges, backing the CG seed columns.
func spannerMetric(pts []geom.Point, pairs []geoi.UnorderedPair) *roadnet.DistMatrix {
	g := roadnet.NewGraph()
	for _, p := range pts {
		g.AddNode(p)
	}
	for _, pr := range pairs {
		g.AddTwoWay(roadnet.NodeID(pr.A), roadnet.NodeID(pr.B), pr.D)
	}
	return g.AllPairs()
}
