package discretize

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/roadnet"
)

// NodeDist exposes the underlying node-to-node distance matrix.
func (p *Partition) NodeDist() *roadnet.DistMatrix { return p.nodeDist }

// EndDist returns d_G(u_i^e, u_l^e), the distance between interval ending
// points that weights the Geo-I constraints (Eq. 20).
func (p *Partition) EndDist(i, l int) float64 { return p.endDist[i*p.k+l] }

func smallGrid(t *testing.T, seed int64) *roadnet.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return roadnet.Grid(rng, roadnet.GridConfig{
		Rows: 3, Cols: 3, Spacing: 0.4, OneWayFrac: 0.5, WeightJitter: 0.2,
	})
}

func mustPartition(t *testing.T, g *roadnet.Graph, delta float64) *Partition {
	t.Helper()
	p, err := New(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRejectsBadInput(t *testing.T) {
	g := smallGrid(t, 1)
	if _, err := New(g, 0); err == nil {
		t.Fatal("accepted delta = 0")
	}
	chain := roadnet.NewGraph()
	a := chain.AddNode(geom.Point{})
	b := chain.AddNode(geom.Point{X: 1})
	chain.AddEdge(a, b, 1)
	if _, err := New(chain, 0.1); err == nil {
		t.Fatal("accepted non-strongly-connected graph")
	}
}

func TestIntervalsCoverEveryEdgeExactly(t *testing.T) {
	g := smallGrid(t, 2)
	p := mustPartition(t, g, 0.1)
	perEdge := make(map[roadnet.EdgeID]float64)
	for _, iv := range p.Intervals {
		if iv.Length() <= 0 {
			t.Fatalf("interval %d has non-positive length", iv.Index)
		}
		perEdge[iv.Edge] += iv.Length()
	}
	for ei := 0; ei < g.NumEdges(); ei++ {
		e := g.Edge(roadnet.EdgeID(ei))
		if math.Abs(perEdge[e.ID]-e.Weight) > 1e-9 {
			t.Fatalf("edge %d covered length %v, weight %v", ei, perEdge[e.ID], e.Weight)
		}
	}
}

func TestIntervalLengthNearDelta(t *testing.T) {
	g := smallGrid(t, 3)
	const delta = 0.1
	p := mustPartition(t, g, delta)
	for _, iv := range p.Intervals {
		if iv.Length() < delta/2-1e-9 || iv.Length() > delta*1.5+1e-9 {
			t.Fatalf("interval %d length %v outside [δ/2, 1.5δ]", iv.Index, iv.Length())
		}
	}
}

func TestIntervalsOrderedAlongEdge(t *testing.T) {
	g := smallGrid(t, 4)
	p := mustPartition(t, g, 0.08)
	for ei := 0; ei < g.NumEdges(); ei++ {
		first, count := p.EdgeIntervals(roadnet.EdgeID(ei))
		w := g.Edge(roadnet.EdgeID(ei)).Weight
		if math.Abs(p.Intervals[first].StartToEnd-w) > 1e-9 {
			t.Fatalf("edge %d: first interval does not start at edge start", ei)
		}
		if p.Intervals[first+count-1].EndToEnd != 0 {
			t.Fatalf("edge %d: last interval does not end at edge end", ei)
		}
		for j := 0; j+1 < count; j++ {
			a, b := p.Intervals[first+j], p.Intervals[first+j+1]
			if math.Abs(a.EndToEnd-b.StartToEnd) > 1e-9 {
				t.Fatalf("edge %d: intervals %d,%d not contiguous", ei, j, j+1)
			}
		}
	}
}

func TestLocateRoundTrip(t *testing.T) {
	g := smallGrid(t, 5)
	p := mustPartition(t, g, 0.1)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 500; trial++ {
		loc := roadnet.RandomLocation(rng, g)
		k := p.Locate(loc)
		iv := p.Intervals[k]
		if iv.Edge != loc.Edge {
			t.Fatalf("Locate put %v on edge %d", loc, iv.Edge)
		}
		if loc.ToEnd < iv.EndToEnd-1e-9 || loc.ToEnd > iv.StartToEnd+1e-9 {
			t.Fatalf("location %v outside its interval [%v, %v]", loc, iv.EndToEnd, iv.StartToEnd)
		}
	}
}

func TestRelativeLocPreserved(t *testing.T) {
	g := smallGrid(t, 7)
	p := mustPartition(t, g, 0.1)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		loc := roadnet.RandomLocation(rng, g)
		rel := p.RelativeLoc(loc)
		if rel < -1e-9 {
			t.Fatalf("negative relative location %v", rel)
		}
		// Transplanting the relative location into another interval and
		// reading it back must return the same value (up to clamping).
		k := rng.Intn(p.K())
		moved := p.WithRelativeLoc(k, rel)
		if rel < p.Intervals[k].Length()-1e-9 {
			// Points exactly on an interval boundary may Locate to the
			// neighbouring interval; skip that measure-zero case.
			if p.Locate(moved) != k {
				t.Fatalf("WithRelativeLoc placed point in interval %d, want %d", p.Locate(moved), k)
			}
			got := p.RelativeLoc(moved)
			if math.Abs(got-rel) > 1e-9 {
				t.Fatalf("relative location %v after transplant, want %v", got, rel)
			}
		}
	}
}

func TestMidDistMatchesDirectComputation(t *testing.T) {
	g := smallGrid(t, 9)
	p := mustPartition(t, g, 0.15)
	nd := p.NodeDist().Dist
	for i := 0; i < p.K(); i += 3 {
		for l := 0; l < p.K(); l += 5 {
			want := roadnet.TravelDist(g, nd, p.Intervals[i].Mid(), p.Intervals[l].Mid())
			if math.Abs(p.MidDist(i, l)-want) > 1e-9 {
				t.Fatalf("MidDist(%d,%d) = %v, want %v", i, l, p.MidDist(i, l), want)
			}
		}
	}
}

func TestDistancesFiniteAndDiagonalZero(t *testing.T) {
	g := smallGrid(t, 10)
	p := mustPartition(t, g, 0.1)
	for i := 0; i < p.K(); i++ {
		if p.MidDist(i, i) != 0 || p.EndDist(i, i) != 0 {
			t.Fatalf("self-distance of %d not zero", i)
		}
		for l := 0; l < p.K(); l++ {
			if math.IsInf(p.MidDist(i, l), 0) || math.IsNaN(p.MidDist(i, l)) {
				t.Fatalf("MidDist(%d,%d) = %v", i, l, p.MidDist(i, l))
			}
			if p.MidDistMin(i, l) != p.MidDistMin(l, i) {
				t.Fatalf("MidDistMin not symmetric at (%d,%d)", i, l)
			}
		}
	}
}

func TestAuxGraphReproducesIntervalDistances(t *testing.T) {
	g := smallGrid(t, 11)
	p := mustPartition(t, g, 0.1)
	aux := p.AuxGraph()
	if aux.NumNodes() != p.K() {
		t.Fatalf("aux graph has %d nodes, want %d", aux.NumNodes(), p.K())
	}
	if !aux.StronglyConnected() {
		t.Fatal("aux graph of a strongly connected network must be strongly connected")
	}
	// Shortest path distance in G' between interval i and l must equal
	// the end-to-end travel distance d_G(u_i^e, u_l^e).
	for i := 0; i < p.K(); i += 4 {
		spt := aux.ShortestPathTree(roadnet.NodeID(i))
		for l := 0; l < p.K(); l += 3 {
			if math.Abs(spt.Dist[l]-p.EndDist(i, l)) > 1e-6 {
				t.Fatalf("aux dist(%d,%d) = %v, EndDist = %v", i, l, spt.Dist[l], p.EndDist(i, l))
			}
		}
	}
}

func TestAuxGraphEdgeCountNearPlanar(t *testing.T) {
	// The paper argues M (aux edges) stays close to K for real road
	// networks; for a grid it must stay within a small constant factor.
	g := smallGrid(t, 12)
	p := mustPartition(t, g, 0.05)
	aux := p.AuxGraph()
	m, k := aux.NumEdges(), p.K()
	if m < k { // every interval has at least one successor
		t.Fatalf("M = %d < K = %d", m, k)
	}
	if float64(m) > 2.5*float64(k) {
		t.Fatalf("M = %d too large versus K = %d", m, k)
	}
}

func TestSmallerDeltaMoreIntervals(t *testing.T) {
	g := smallGrid(t, 13)
	coarse := mustPartition(t, g, 0.2)
	fine := mustPartition(t, g, 0.05)
	if fine.K() <= coarse.K() {
		t.Fatalf("K(0.05) = %d not greater than K(0.2) = %d", fine.K(), coarse.K())
	}
}
