package roadnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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
		seg := segment{A: g.nodes[e.From].Pos, B: g.nodes[e.To].Pos}
		t, d2 := closestParam(seg, p)
		if d2 < bestD {
			bestD = d2
			best = LocationFromStart(g, e.ID, t*e.Weight)
		}
	}
	return best
}

// segment is a directed straight segment from A to B.
type segment struct {
	A, B geom.Point
}

// At returns the point a fraction t along the segment from A.
func (s segment) At(t float64) geom.Point { return geom.Lerp(s.A, s.B, t) }

// dot returns the dot product p · q.
func dot(p, q geom.Point) float64 { return p.X*q.X + p.Y*q.Y }

// closestParam returns the parameter t in [0, 1] of the point on s
// closest to p, along with the squared distance to that point.
func closestParam(s segment, p geom.Point) (t, distSq float64) {
	d := s.B.Sub(s.A)
	den := dot(d, d)
	if den == 0 {
		dp := p.Sub(s.A)
		return 0, dot(dp, dp)
	}
	t = dot(p.Sub(s.A), d) / den
	t = geom.Clamp(t, 0, 1)
	c := s.At(t)
	dp := p.Sub(c)
	return t, dot(dp, dp)
}

func TestSegmentClosestParam(t *testing.T) {
	s := segment{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 2, Y: 0}}
	cases := []struct {
		p      geom.Point
		t, dsq float64
	}{
		{geom.Point{X: 1, Y: 1}, 0.5, 1},
		{geom.Point{X: -1, Y: 0}, 0, 1},
		{geom.Point{X: 5, Y: 0}, 1, 9},
	}
	for _, c := range cases {
		tt, dsq := closestParam(s, c.p)
		if math.Abs(tt-c.t) > 1e-12 || math.Abs(dsq-c.dsq) > 1e-12 {
			t.Fatalf("closestParam(%v) = %v, %v; want %v, %v", c.p, tt, dsq, c.t, c.dsq)
		}
	}
	// Degenerate zero-length segment.
	z := segment{A: geom.Point{X: 1, Y: 1}, B: geom.Point{X: 1, Y: 1}}
	tt, dsq := closestParam(z, geom.Point{X: 2, Y: 1})
	if tt != 0 || dsq != 1 {
		t.Fatalf("degenerate closestParam = %v, %v", tt, dsq)
	}
}

func TestClosestParamIsMinimumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(ax, ay, bx, by, px, py int16) bool {
		s := segment{A: geom.Point{X: float64(ax) / 100, Y: float64(ay) / 100}, B: geom.Point{X: float64(bx) / 100, Y: float64(by) / 100}}
		p := geom.Point{X: float64(px) / 100, Y: float64(py) / 100}
		_, dBest := closestParam(s, p)
		for i := 0; i <= 20; i++ {
			d := p.Sub(s.At(float64(i) / 20))
			if dot(d, d) < dBest-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
