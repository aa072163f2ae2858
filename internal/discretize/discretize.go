// Package discretize implements Step I of the paper's D-VLP
// approximation: every road edge is partitioned into intervals of length
// ≈ δ, obfuscation probabilities are defined per interval, and an
// auxiliary graph G′ over intervals supports the shortest-path-tree
// machinery of the constraint-reduction algorithm.
//
// One deliberate deviation from the paper's Step I: instead of cutting
// exact-δ intervals and leaving a shorter leftover piece at the end of
// each edge (which the paper then ignores "as δ is small enough"), each
// edge of weight w is cut into round(w/δ) equal intervals of length
// ≈ δ. Every point of the network is then covered by exactly one
// interval, which the probability-unit-measure constraint requires, and
// the interval length stays within ±50 % of δ.
package discretize

import (
	"fmt"
	"math"

	"repro/internal/roadnet"
)

// Interval is one partitioned piece u_k of an edge. Its endpoints follow
// the paper's ToEnd convention: StartToEnd is the distance from the
// interval's starting endpoint u_k^s to the edge head, EndToEnd from its
// ending endpoint u_k^e, so StartToEnd − EndToEnd = Length.
type Interval struct {
	Index      int
	Edge       roadnet.EdgeID
	StartToEnd float64
	EndToEnd   float64
}

// Length returns the interval's length along the edge.
func (iv Interval) Length() float64 { return iv.StartToEnd - iv.EndToEnd }

// End returns the location of u_k^e.
func (iv Interval) End() roadnet.Location {
	return roadnet.Location{Edge: iv.Edge, ToEnd: iv.EndToEnd}
}

// Mid returns the interval midpoint, the representative the quality-loss
// integrals are evaluated at.
func (iv Interval) Mid() roadnet.Location {
	return roadnet.Location{Edge: iv.Edge, ToEnd: (iv.StartToEnd + iv.EndToEnd) / 2}
}

// Partition is the discretised road network: the interval set U, the
// node-distance matrix of the underlying graph, and precomputed
// interval-to-interval travel distances.
type Partition struct {
	G         *roadnet.Graph
	Delta     float64
	Intervals []Interval

	edgeFirst []int // first interval index of each edge
	edgeCount []int
	nodeDist  *roadnet.DistMatrix

	k       int
	midDist []float64 // d_G(mid_i, mid_l), K×K row-major
	endDist []float64 // d_G(u_i^e, u_l^e)
}

// New partitions the graph with target interval length delta (km). The
// graph must be strongly connected so all travel distances are finite.
// maxIntervals bounds the partition size New will build. The solver's
// K×K matrices make anything near this size unusable anyway, and the
// bound keeps adversarial inputs (a tiny delta against a long edge, as
// exercised by the serial-package fuzzers) from attempting an unbounded
// allocation.
const maxIntervals = 1 << 20

func New(g *roadnet.Graph, delta float64) (*Partition, error) {
	// !(delta > 0) rather than delta <= 0: NaN fails every comparison and
	// must be rejected too.
	if !(delta > 0) || math.IsInf(delta, 0) {
		return nil, fmt.Errorf("discretize: invalid delta %v", delta)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !g.StronglyConnected() {
		return nil, fmt.Errorf("discretize: graph is not strongly connected")
	}
	total := 0
	for ei := 0; ei < g.NumEdges(); ei++ {
		n := intervalCount(g.Edge(roadnet.EdgeID(ei)).Weight, delta)
		if n > maxIntervals-total {
			return nil, fmt.Errorf("discretize: delta %v yields more than %d intervals", delta, maxIntervals)
		}
		total += n
	}
	p := &Partition{
		G:         g,
		Delta:     delta,
		edgeFirst: make([]int, g.NumEdges()),
		edgeCount: make([]int, g.NumEdges()),
		nodeDist:  g.AllPairs(),
	}
	for ei := 0; ei < g.NumEdges(); ei++ {
		e := g.Edge(roadnet.EdgeID(ei))
		n := intervalCount(e.Weight, delta)
		size := e.Weight / float64(n)
		p.edgeFirst[ei] = len(p.Intervals)
		p.edgeCount[ei] = n
		for j := 0; j < n; j++ {
			p.Intervals = append(p.Intervals, Interval{
				Index:      len(p.Intervals),
				Edge:       e.ID,
				StartToEnd: e.Weight - float64(j)*size,
				EndToEnd:   e.Weight - float64(j+1)*size,
			})
		}
		// Clamp the last interval's EndToEnd to exactly 0 against float
		// drift.
		p.Intervals[len(p.Intervals)-1].EndToEnd = 0
	}
	p.k = len(p.Intervals)
	p.computeDistances()
	return p, nil
}

// intervalCount returns round(w/delta) clamped to [1, maxIntervals+1);
// the clamp keeps int conversion defined for overflowing ratios.
func intervalCount(w, delta float64) int {
	r := math.Round(w / delta)
	if !(r > 1) {
		return 1
	}
	if r > maxIntervals {
		return maxIntervals + 1
	}
	return int(r)
}

// K returns the number of intervals |U|.
func (p *Partition) K() int { return p.k }

// Locate returns the index of the interval containing the location.
func (p *Partition) Locate(l roadnet.Location) int {
	first := p.edgeFirst[l.Edge]
	n := p.edgeCount[l.Edge]
	w := p.G.Edge(l.Edge).Weight
	size := w / float64(n)
	j := int(l.FromStart(p.G) / size)
	if j >= n {
		j = n - 1
	}
	if j < 0 {
		j = 0
	}
	return first + j
}

// RelativeLoc returns δ(p) = x − x_{u_k}^e, the paper's relative location
// of a point within its interval (Step II preserves it under
// obfuscation).
func (p *Partition) RelativeLoc(l roadnet.Location) float64 {
	iv := p.Intervals[p.Locate(l)]
	return l.ToEnd - iv.EndToEnd
}

// WithRelativeLoc returns the location inside interval k that has the
// given relative location, clamped to the interval (Step II: the
// obfuscated point keeps the true point's relative location).
func (p *Partition) WithRelativeLoc(k int, rel float64) roadnet.Location {
	iv := p.Intervals[k]
	if rel < 0 {
		rel = 0
	}
	if rel > iv.Length() {
		rel = iv.Length()
	}
	return roadnet.Location{Edge: iv.Edge, ToEnd: iv.EndToEnd + rel}
}

// EdgeIntervals returns the interval index range [first, first+count) of
// the given edge, ordered from edge start to edge end.
func (p *Partition) EdgeIntervals(e roadnet.EdgeID) (first, count int) {
	return p.edgeFirst[e], p.edgeCount[e]
}

func (p *Partition) computeDistances() {
	k := p.k
	p.midDist = make([]float64, k*k)
	p.endDist = make([]float64, k*k)
	nd := p.nodeDist.Dist
	for i := 0; i < k; i++ {
		mi := p.Intervals[i].Mid()
		ei := p.Intervals[i].End()
		for l := 0; l < k; l++ {
			ml := p.Intervals[l].Mid()
			el := p.Intervals[l].End()
			p.midDist[i*k+l] = roadnet.TravelDist(p.G, nd, mi, ml)
			p.endDist[i*k+l] = roadnet.TravelDist(p.G, nd, ei, el)
		}
	}
}

// MidDist returns d_G(mid_i, mid_l): the travel distance between interval
// representatives, used for quality-loss costs and attack errors.
func (p *Partition) MidDist(i, l int) float64 { return p.midDist[i*p.k+l] }

// MidDistMin returns d_G^min between interval midpoints.
func (p *Partition) MidDistMin(i, l int) float64 {
	return math.Min(p.midDist[i*p.k+l], p.midDist[l*p.k+i])
}

// EndDistMin returns d_G^min(u_i^e, u_l^e).
func (p *Partition) EndDistMin(i, l int) float64 {
	return math.Min(p.endDist[i*p.k+l], p.endDist[l*p.k+i])
}

// TravelDistLoc returns d_G between two arbitrary on-network locations
// using the partition's cached node distances.
func (p *Partition) TravelDistLoc(a, b roadnet.Location) float64 {
	return roadnet.TravelDist(p.G, p.nodeDist.Dist, a, b)
}

// TravelDistMinLoc returns d_G^min between two locations.
func (p *Partition) TravelDistMinLoc(a, b roadnet.Location) float64 {
	return roadnet.TravelDistMin(p.G, p.nodeDist.Dist, a, b)
}

// AuxGraph builds the paper's auxiliary graph G′ (Definition 4.1): one
// vertex per interval, and a directed edge u′_i → u′_l whenever a worker
// can travel directly from u_i into u_l — consecutive intervals of the
// same edge, or a last interval of an edge into the first interval of a
// successor edge across a connection. Edge weights are the exact travel
// distance between the interval *ending* points (≈ δ), so shortest paths
// in G′ reproduce interval-to-interval travel distances and Geo-I chain
// weights compose exactly.
func (p *Partition) AuxGraph() *roadnet.Graph {
	aux := roadnet.NewGraph()
	for _, iv := range p.Intervals {
		aux.AddNode(iv.Mid().Point(p.G))
	}
	for ei := 0; ei < p.G.NumEdges(); ei++ {
		first, count := p.EdgeIntervals(roadnet.EdgeID(ei))
		for j := 0; j+1 < count; j++ {
			w := p.Intervals[first+j+1].Length()
			aux.AddEdge(roadnet.NodeID(first+j), roadnet.NodeID(first+j+1), w)
		}
	}
	for v := 0; v < p.G.NumNodes(); v++ {
		for _, inE := range p.G.InEdges(roadnet.NodeID(v)) {
			fi, ci := p.EdgeIntervals(inE)
			last := fi + ci - 1
			for _, outE := range p.G.OutEdges(roadnet.NodeID(v)) {
				fo, _ := p.EdgeIntervals(outE)
				w := p.Intervals[fo].Length()
				aux.AddEdge(roadnet.NodeID(last), roadnet.NodeID(fo), w)
			}
		}
	}
	return aux
}
