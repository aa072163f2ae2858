// Package geoi builds the (ε, r)-geo-indistinguishability constraint sets
// of the D-VLP linear program, both in full form (one constraint per
// ordered interval pair within the privacy radius, per obfuscated
// interval — O(K³)) and in the paper's reduced form (Algorithm 1): by the
// transitivity of Geo-I along shortest paths of the auxiliary graph
// (Theorem 4.2), it suffices to constrain interval pairs that are
// adjacent on some shortest path, cutting the count to O(KM).
package geoi

import (
	"math"
	"sort"

	"repro/internal/discretize"
	"repro/internal/roadnet"
)

// Pair is one ordered Geo-I relation u′_i ≃ u′_l with exponent distance D:
// it stands for the K constraints z_{i,j} ≤ e^{εD} · z_{l,j}, one per
// obfuscated interval j.
type Pair struct {
	I, L int
	D    float64
}

// FullPairs enumerates every ordered interval pair (i, l), i ≠ l, whose
// two-direction distance d_G^min(u_i^e, u_l^e) is within radius. A
// non-positive radius means "no radius cut" (constrain all pairs). The
// exponent distance is d_G^min per Eq. (20).
func FullPairs(p *discretize.Partition, radius float64) []Pair {
	k := p.K()
	pairs := make([]Pair, 0, k*k/2)
	for i := 0; i < k; i++ {
		for l := 0; l < k; l++ {
			if i == l {
				continue
			}
			d := p.EndDistMin(i, l)
			if radius > 0 && d > radius {
				continue
			}
			pairs = append(pairs, Pair{I: i, L: l, D: d})
		}
	}
	return pairs
}

// CountFull returns the number of Geo-I inequality rows the unreduced
// D-VLP would contain: (#ordered pairs within radius) × K, without
// materialising them.
func CountFull(p *discretize.Partition, radius float64) int64 {
	k := p.K()
	var pairs int64
	for i := 0; i < k; i++ {
		for l := 0; l < k; l++ {
			if i == l {
				continue
			}
			if radius <= 0 || p.EndDistMin(i, l) <= radius {
				pairs++
			}
		}
	}
	return pairs * int64(k)
}

// Reduced is the output of the constraint-reduction algorithm: the
// deduplicated set of *unordered* adjacent interval pairs that must carry
// a bidirectional Geo-I constraint, each with the tightest exponent
// distance seen. Every pair stands for 2K LP rows
// (z_{a,j} ≤ e^{εD} z_{b,j} and z_{b,j} ≤ e^{εD} z_{a,j} for all j).
type Reduced struct {
	Pairs []UnorderedPair
	// MarkedEdges is the number of distinct auxiliary-graph edges marked
	// by Algorithm 1 before deduplication of anti-parallel pairs.
	MarkedEdges int
}

// UnorderedPair is an adjacent interval pair {A, B} with exponent
// distance D. Eps, when positive, is the heterogeneous privacy
// requirement this adjacency must satisfy (the minimum over all interval
// pairs whose shortest path traverses it); zero means the problem's
// homogeneous ε applies.
type UnorderedPair struct {
	A, B int
	D    float64
	Eps  float64
}

// NumRows returns the number of Geo-I inequality rows of the reduced
// D-VLP: 2 directions × pairs × K obfuscated intervals.
func (r *Reduced) NumRows(k int) int64 {
	return 2 * int64(len(r.Pairs)) * int64(k)
}

// Reduce runs Algorithm 1 on the partition's auxiliary graph. For every
// interval pair within radius (non-positive radius = all pairs) it walks
// the shorter-direction shortest path and marks each traversed
// auxiliary edge; marked edges become bidirectional adjacent
// constraints. Chaining those constraints reproduces the full Geo-I
// constraint z_a ≤ e^{ε·d_min(a,b)} z_b in *both* directions for every
// pair, because the forward chain composes to the path length
// d_min(a, b) and the backward chain reuses the same edges' reverse
// constraints (see Theorem 4.2 and Property 4.1).
func Reduce(p *discretize.Partition, aux *roadnet.Graph, radius float64) *Reduced {
	return reduce(p, aux, radius, nil)
}

// ReduceHetero runs the constraint reduction for heterogeneous
// (per-interval) privacy parameters: every marked adjacency records the
// smallest requirement min(ε_a, ε_b) over all pairs (a, b) whose chosen
// shortest path traverses it, so chained constraints still certify every
// pair's own guarantee. This is (weakly) stricter than an exact
// heterogeneous D-VLP would need — a chain entirely inside a loose
// region keeps its loose ε, but an adjacency shared with a strict pair's
// path tightens to the strict value.
func ReduceHetero(p *discretize.Partition, aux *roadnet.Graph, radius float64, epsAt []float64) *Reduced {
	return reduce(p, aux, radius, epsAt)
}

func reduce(p *discretize.Partition, aux *roadnet.Graph, radius float64, epsAt []float64) *Reduced {
	k := p.K()
	inf := math.Inf(1)
	// edgeReq[e] is the strictest (smallest) heterogeneous requirement of
	// any pair routed over e; +Inf means unmarked. In the homogeneous
	// case a marked edge simply gets requirement 0 (sentinel).
	edgeReq := make([]float64, aux.NumEdges())
	for i := range edgeReq {
		edgeReq[i] = inf
	}
	pairEps := func(a, b int) float64 {
		if epsAt == nil {
			return 0
		}
		return math.Min(epsAt[a], epsAt[b])
	}

	// visited[v]/visitedReq[v] form a per-tree generation memo: once a
	// node's path to the root has been walked at requirement ≤ req,
	// later walks stop there. This keeps each root's work near O(K).
	visited := make([]int, k)
	visitedReq := make([]float64, k)
	for i := range visited {
		visited[i] = -1
	}
	stamp := 0

	walk := func(t *roadnet.SPT, from roadnet.NodeID, req float64) {
		cur := from
		for cur != t.Root {
			if visited[cur] == stamp && visitedReq[cur] <= req {
				return
			}
			visited[cur] = stamp
			visitedReq[cur] = req
			eid := t.Parent[cur]
			if eid == roadnet.NoEdge {
				return // unreachable; caller filtered, defensive only
			}
			if req < edgeReq[eid] {
				edgeReq[eid] = req
			}
			e := aux.Edge(eid)
			if t.Reverse {
				cur = e.To
			} else {
				cur = e.From
			}
		}
	}

	for i := 0; i < k; i++ {
		root := roadnet.NodeID(i)
		out := aux.ShortestPathTree(root)       // SPT-Out(i): paths i → j
		in := aux.ReverseShortestPathTree(root) // SPT-In(i): paths j → i
		stamp++                                 // new generation for out-tree walks
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			dOut, dIn := out.Dist[j], in.Dist[j]
			dmin := math.Min(dOut, dIn)
			if math.IsInf(dmin, 1) {
				continue
			}
			if radius > 0 && dmin > radius {
				continue
			}
			if dOut <= dIn {
				walk(out, roadnet.NodeID(j), pairEps(i, j))
			}
		}
		stamp++ // separate generation for in-tree walks
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			dOut, dIn := out.Dist[j], in.Dist[j]
			dmin := math.Min(dOut, dIn)
			if math.IsInf(dmin, 1) {
				continue
			}
			if radius > 0 && dmin > radius {
				continue
			}
			if dOut > dIn {
				walk(in, roadnet.NodeID(j), pairEps(i, j))
			}
		}
	}

	// Deduplicate anti-parallel marked edges into unordered pairs,
	// keeping the smaller (tighter, hence subsuming) exponent distance
	// and the stricter requirement.
	type key struct{ a, b int }
	type val struct{ d, eps float64 }
	best := make(map[key]val)
	count := 0
	for eid := 0; eid < aux.NumEdges(); eid++ {
		if math.IsInf(edgeReq[eid], 1) {
			continue
		}
		count++
		e := aux.Edge(roadnet.EdgeID(eid))
		a, b := int(e.From), int(e.To)
		if a > b {
			a, b = b, a
		}
		kk := key{a, b}
		v, ok := best[kk]
		if !ok {
			best[kk] = val{d: e.Weight, eps: edgeReq[eid]}
			continue
		}
		if e.Weight < v.d {
			v.d = e.Weight
		}
		if edgeReq[eid] < v.eps {
			v.eps = edgeReq[eid]
		}
		best[kk] = v
	}
	red := &Reduced{MarkedEdges: count, Pairs: make([]UnorderedPair, 0, len(best))}
	for kk, v := range best {
		red.Pairs = append(red.Pairs, UnorderedPair{A: kk.a, B: kk.b, D: v.d, Eps: v.eps})
	}
	// Deterministic order for reproducible LPs (map iteration is random).
	sort.Slice(red.Pairs, func(i, j int) bool {
		a, b := red.Pairs[i], red.Pairs[j]
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	return red
}

// SymmetrizedDistances returns the all-pairs shortest-path metric of the
// *undirected* version of the auxiliary graph (each anti-parallel edge
// pair collapses to its smaller weight). Unlike d_min — the minimum of
// the two directed distances, which is symmetric but can violate the
// triangle inequality on one-way-street networks — this is a true
// metric, and it lower-bounds d_min pointwise. Functions 1-Lipschitz in
// it (for example the exponential-mechanism seed columns of the column
// generation) therefore satisfy Geo-I under d_min as well.
func SymmetrizedDistances(aux *roadnet.Graph) *roadnet.DistMatrix {
	und := roadnet.NewGraph()
	for i := 0; i < aux.NumNodes(); i++ {
		und.AddNode(aux.Node(roadnet.NodeID(i)).Pos)
	}
	type key struct{ a, b int }
	best := make(map[key]float64, aux.NumEdges())
	for e := 0; e < aux.NumEdges(); e++ {
		ed := aux.Edge(roadnet.EdgeID(e))
		a, b := int(ed.From), int(ed.To)
		if a > b {
			a, b = b, a
		}
		kk := key{a, b}
		if w, ok := best[kk]; !ok || ed.Weight < w {
			best[kk] = ed.Weight
		}
	}
	for kk, w := range best {
		und.AddTwoWay(roadnet.NodeID(kk.a), roadnet.NodeID(kk.b), w)
	}
	return und.AllPairs()
}
