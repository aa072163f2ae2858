package roadnet

import (
	"math"

	"repro/internal/geom"
)

// PathEdges returns the edges of the tree path between v and the root, in
// travel order (root→v for an out-tree, v→root for an in-tree). It
// returns nil when v is unreachable.
func (t *SPT) PathEdges(g *Graph, v NodeID) []EdgeID {
	if math.IsInf(t.Dist[v], 1) {
		return nil
	}
	var rev []EdgeID
	cur := v
	for cur != t.Root {
		eid := t.Parent[cur]
		if eid == NoEdge {
			return nil
		}
		rev = append(rev, eid)
		e := g.edges[eid]
		if t.Reverse {
			cur = e.To
		} else {
			cur = e.From
		}
	}
	if t.Reverse {
		// Parent chain already walks v→root in travel order; rev holds
		// the first edge first.
		return rev
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Diameter returns the largest finite pairwise distance.
func (m *DistMatrix) Diameter() float64 {
	worst := 0.0
	for _, v := range m.d {
		if !math.IsInf(v, 1) && v > worst {
			worst = v
		}
	}
	return worst
}

// NearestLocation snaps an arbitrary planar point to the closest position
// on any edge (treating edges as straight segments) and returns that
// on-network location. This implements the paper's footnote-3 rule for
// mapping the planar baseline's obfuscated points back onto roads.
func (g *Graph) NearestLocation(p geom.Point) Location {
	best := Location{Edge: NoEdge}
	bestD := math.Inf(1)
	for _, e := range g.edges {
		seg := geom.Segment{A: g.nodes[e.From].Pos, B: g.nodes[e.To].Pos}
		t, d2 := seg.ClosestParam(p)
		if d2 < bestD {
			bestD = d2
			best = LocationFromStart(g, e.ID, t*e.Weight)
		}
	}
	return best
}
