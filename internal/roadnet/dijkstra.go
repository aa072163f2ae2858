package roadnet

import "math"

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a binary min-heap on dist. push and pop make exactly the
// comparisons and swaps of container/heap's Push and Pop (sift-up; swap
// the last item to the root, then sift-down), so equal-distance ties
// resolve in the same order and shortest-path trees keep the same
// parents. Being typed, it does not box an item per push.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// SPT is a shortest-path tree rooted at Root. For an out-tree
// (Reverse = false) Dist[v] is the travel distance Root→v and Parent[v]
// is the final edge of that path (entering v). For an in-tree
// (Reverse = true) Dist[v] is the distance v→Root and Parent[v] is the
// first edge of that path (leaving v). Unreachable nodes have
// Dist = +Inf and Parent = NoEdge.
type SPT struct {
	Root    NodeID
	Reverse bool
	Dist    []float64
	Parent  []EdgeID
}

// ShortestPathTree runs Dijkstra from src over out-edges, returning the
// out-tree (the paper's SPT-Out).
func (g *Graph) ShortestPathTree(src NodeID) *SPT {
	return g.dijkstra(src, false)
}

// ReverseShortestPathTree runs Dijkstra toward dst over in-edges,
// returning the in-tree (the paper's SPT-In): distances from every node
// to dst.
func (g *Graph) ReverseShortestPathTree(dst NodeID) *SPT {
	return g.dijkstra(dst, true)
}

func (g *Graph) dijkstra(root NodeID, reverse bool) *SPT {
	n := g.NumNodes()
	dist := make([]float64, n)
	parent := make([]EdgeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = NoEdge
	}
	dist[root] = 0

	q := make(pq, 0, n)
	q.push(pqItem{root, 0})
	done := make([]bool, n)
	for len(q) > 0 {
		it := q.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		var adj []EdgeID
		if reverse {
			adj = g.in[u]
		} else {
			adj = g.out[u]
		}
		for _, eid := range adj {
			e := g.edges[eid]
			var v NodeID
			if reverse {
				v = e.From
			} else {
				v = e.To
			}
			if nd := it.dist + e.Weight; nd < dist[v] {
				dist[v] = nd
				parent[v] = eid
				q.push(pqItem{v, nd})
			}
		}
	}
	return &SPT{Root: root, Reverse: reverse, Dist: dist, Parent: parent}
}

// DistMatrix holds all-pairs shortest node-to-node traveling distances.
type DistMatrix struct {
	n int
	d []float64
}

// AllPairs computes all-pairs shortest distances with one Dijkstra per
// node: O(n·(m + n log n)). Road graphs are sparse, so this beats
// Floyd-Warshall well past the sizes the experiments use.
func (g *Graph) AllPairs() *DistMatrix {
	n := g.NumNodes()
	m := &DistMatrix{n: n, d: make([]float64, n*n)}
	for u := 0; u < n; u++ {
		t := g.ShortestPathTree(NodeID(u))
		copy(m.d[u*n:(u+1)*n], t.Dist)
	}
	return m
}

// Dist returns the shortest traveling distance from u to v.
func (m *DistMatrix) Dist(u, v NodeID) float64 { return m.d[int(u)*m.n+int(v)] }
