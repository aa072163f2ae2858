package roadnet

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Location is a point on the road network using the paper's convention
// p = (e, x): x = ToEnd is the remaining travel distance from the point
// to the edge's ending connection v_e^e, with ToEnd ∈ (0, w_e]. ToEnd = w_e
// therefore places the point at the edge's *starting* connection.
type Location struct {
	Edge  EdgeID
	ToEnd float64
}

// LocationFromStart builds a Location from the more familiar
// distance-from-start parameterisation, clamped to the edge.
func LocationFromStart(g *Graph, e EdgeID, fromStart float64) Location {
	w := g.Edge(e).Weight
	fromStart = geom.Clamp(fromStart, 0, w)
	return Location{Edge: e, ToEnd: w - fromStart}
}

// FromStart returns the travel distance from the edge's starting
// connection to the location.
func (l Location) FromStart(g *Graph) float64 {
	return g.Edge(l.Edge).Weight - l.ToEnd
}

// Point returns the planar position of the location.
func (l Location) Point(g *Graph) geom.Point {
	return g.EdgePoint(l.Edge, l.FromStart(g))
}

// Valid reports whether the location lies on an existing edge with an
// offset within the edge length.
//
//lint:ignore deadcode a test oracle for generated and served locations, used by roadnet, core, server and trace tests
func (l Location) Valid(g *Graph) bool {
	if l.Edge < 0 || int(l.Edge) >= g.NumEdges() {
		return false
	}
	w := g.Edge(l.Edge).Weight
	return l.ToEnd >= 0 && l.ToEnd <= w && !math.IsNaN(l.ToEnd)
}

// String implements fmt.Stringer.
func (l Location) String() string {
	return fmt.Sprintf("(e%d, toEnd=%.4f)", l.Edge, l.ToEnd)
}

// TravelDist returns the paper's one-directional shortest traveling
// distance d_G(p, q) over the network, following the C1/C2 case analysis
// of Section 3.3 (Eqs. 9-10):
//
//	C2: p and q share an edge and p is upstream of q  →  x_p − x_q.
//	C1: otherwise the path exits via p's edge head, travels to q's edge
//	    tail, and enters q's edge  →  x_p + d(head(e_p), tail(e_q)) + (w_q − x_q).
//
// nodeDist must return the shortest node-to-node traveling distance; use
// Graph.AllPairs().Dist or a closure over Dijkstra results.
func TravelDist(g *Graph, nodeDist func(u, v NodeID) float64, p, q Location) float64 {
	if p.Edge == q.Edge && p.ToEnd >= q.ToEnd {
		return p.ToEnd - q.ToEnd
	}
	ep, eq := g.Edge(p.Edge), g.Edge(q.Edge)
	return p.ToEnd + nodeDist(ep.To, eq.From) + (eq.Weight - q.ToEnd)
}

// TravelDistMin returns d_G^min(p, q) = min{d_G(p,q), d_G(q,p)}, the
// two-direction traveling distance the paper uses as its privacy metric.
func TravelDistMin(g *Graph, nodeDist func(u, v NodeID) float64, p, q Location) float64 {
	return math.Min(TravelDist(g, nodeDist, p, q), TravelDist(g, nodeDist, q, p))
}
