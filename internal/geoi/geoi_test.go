package geoi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/discretize"
	"repro/internal/roadnet"
)

func testPartition(t *testing.T, seed int64, delta float64) *discretize.Partition {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := roadnet.Grid(rng, roadnet.GridConfig{
		Rows: 3, Cols: 3, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	p, err := discretize.New(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFullPairsSymmetricAndWithinRadius(t *testing.T) {
	p := testPartition(t, 1, 0.15)
	const radius = 0.5
	pairs := FullPairs(p, radius)
	seen := make(map[[2]int]float64, len(pairs))
	for _, pr := range pairs {
		if pr.I == pr.L {
			t.Fatal("self pair emitted")
		}
		if pr.D > radius+1e-12 {
			t.Fatalf("pair (%d,%d) distance %v beyond radius", pr.I, pr.L, pr.D)
		}
		if math.Abs(pr.D-p.EndDistMin(pr.I, pr.L)) > 1e-12 {
			t.Fatalf("pair distance mismatch")
		}
		seen[[2]int{pr.I, pr.L}] = pr.D
	}
	// d_min is symmetric, so the pair set must contain both orders.
	for key, d := range seen {
		rd, ok := seen[[2]int{key[1], key[0]}]
		if !ok || math.Abs(rd-d) > 1e-12 {
			t.Fatalf("pair (%d,%d) lacks symmetric twin", key[0], key[1])
		}
	}
}

func TestCountFullMatchesEnumeration(t *testing.T) {
	p := testPartition(t, 2, 0.15)
	for _, radius := range []float64{0.3, 1.0, 0} {
		want := int64(len(FullPairs(p, radius))) * int64(p.K())
		if got := CountFull(p, radius); got != want {
			t.Fatalf("radius %v: CountFull = %d, enumeration %d", radius, got, want)
		}
	}
}

func TestReducePairsAreAuxAdjacent(t *testing.T) {
	p := testPartition(t, 3, 0.1)
	aux := p.AuxGraph()
	adj := make(map[[2]int]bool)
	for e := 0; e < aux.NumEdges(); e++ {
		ed := aux.Edge(roadnet.EdgeID(e))
		a, b := int(ed.From), int(ed.To)
		if a > b {
			a, b = b, a
		}
		adj[[2]int{a, b}] = true
	}
	red := Reduce(p, aux, 0)
	if len(red.Pairs) == 0 {
		t.Fatal("no reduced pairs")
	}
	for _, pr := range red.Pairs {
		if !adj[[2]int{pr.A, pr.B}] {
			t.Fatalf("reduced pair (%d,%d) is not auxiliary-adjacent", pr.A, pr.B)
		}
		if pr.D <= 0 {
			t.Fatalf("reduced pair (%d,%d) has non-positive distance %v", pr.A, pr.B, pr.D)
		}
	}
}

func TestReduceCutsConstraintCount(t *testing.T) {
	p := testPartition(t, 4, 0.08)
	aux := p.AuxGraph()
	red := Reduce(p, aux, 0)
	full := CountFull(p, 0)
	reduced := red.NumRows(p.K())
	if reduced >= full {
		t.Fatalf("reduction did not shrink constraints: %d >= %d", reduced, full)
	}
	// The paper reports >99%% cuts at realistic K; at our test sizes the
	// cut must already be large.
	if ratio := float64(reduced) / float64(full); ratio > 0.35 {
		t.Fatalf("reduction ratio %.3f too weak (reduced %d, full %d, K=%d)",
			ratio, reduced, full, p.K())
	}
}

func TestReduceMarkedEdgesNearK(t *testing.T) {
	// M (aux edges) close to K implies reduced rows ≈ O(K²); the marked
	// subset cannot exceed the aux edge count.
	p := testPartition(t, 5, 0.08)
	aux := p.AuxGraph()
	red := Reduce(p, aux, 0)
	if red.MarkedEdges > aux.NumEdges() {
		t.Fatalf("marked %d edges of %d", red.MarkedEdges, aux.NumEdges())
	}
	if red.MarkedEdges < p.K()/2 {
		t.Fatalf("marked suspiciously few edges: %d for K=%d", red.MarkedEdges, p.K())
	}
}

// chainBound computes, for each ordered interval pair (a,b), the tightest
// exponent implied by chaining the reduced bidirectional constraints:
// the shortest path from a to b in the graph whose edges are the reduced
// pairs (both directions, weight D). Geo-I for (a,b) requires this bound
// to be at most d_min(a,b) — the transitivity/soundness property.
func chainBound(k int, red *Reduced) [][]float64 {
	const inf = math.MaxFloat64
	d := make([][]float64, k)
	for i := range d {
		d[i] = make([]float64, k)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for _, pr := range red.Pairs {
		if pr.D < d[pr.A][pr.B] {
			d[pr.A][pr.B] = pr.D
			d[pr.B][pr.A] = pr.D
		}
	}
	for m := 0; m < k; m++ {
		for i := 0; i < k; i++ {
			if d[i][m] == inf {
				continue
			}
			for j := 0; j < k; j++ {
				if d[m][j] == inf {
					continue
				}
				if s := d[i][m] + d[m][j]; s < d[i][j] {
					d[i][j] = s
				}
			}
		}
	}
	return d
}

func TestReduceSoundness(t *testing.T) {
	// Chained reduced constraints must imply the full Geo-I constraint for
	// every pair: chain exponent ≤ d_min(a,b) + tolerance. (Equality holds
	// when the chain follows the min-direction shortest path.)
	p := testPartition(t, 6, 0.12)
	aux := p.AuxGraph()
	red := Reduce(p, aux, 0)
	bound := chainBound(p.K(), red)
	for a := 0; a < p.K(); a++ {
		for b := 0; b < p.K(); b++ {
			if a == b {
				continue
			}
			dmin := p.EndDistMin(a, b)
			if bound[a][b] > dmin+1e-6 {
				t.Fatalf("pair (%d,%d): chained exponent %v exceeds d_min %v",
					a, b, bound[a][b], dmin)
			}
		}
	}
}

func TestReduceRadiusFilterKeepsLocalSoundness(t *testing.T) {
	p := testPartition(t, 7, 0.12)
	aux := p.AuxGraph()
	const radius = 0.4
	red := Reduce(p, aux, radius)
	bound := chainBound(p.K(), red)
	for a := 0; a < p.K(); a++ {
		for b := 0; b < p.K(); b++ {
			if a == b {
				continue
			}
			dmin := p.EndDistMin(a, b)
			if dmin > radius {
				continue
			}
			if bound[a][b] > dmin+1e-6 {
				t.Fatalf("in-radius pair (%d,%d): chained exponent %v exceeds d_min %v",
					a, b, bound[a][b], dmin)
			}
		}
	}
}
