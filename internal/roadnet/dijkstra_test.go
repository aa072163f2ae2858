package roadnet

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// refQueue is the container/heap priority queue the typed pq replaced.
// It is the reference the typed heap must match pop for pop.
type refQueue []pqItem

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// refDijkstra is dijkstra over the container/heap reference queue.
func refDijkstra(g *Graph, root NodeID, reverse bool) *SPT {
	n := g.NumNodes()
	dist := make([]float64, n)
	parent := make([]EdgeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = NoEdge
	}
	dist[root] = 0
	q := refQueue{}
	heap.Push(&q, pqItem{root, 0})
	done := make([]bool, n)
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		adj := g.out[u]
		if reverse {
			adj = g.in[u]
		}
		for _, eid := range adj {
			e := g.edges[eid]
			v := e.To
			if reverse {
				v = e.From
			}
			if nd := it.dist + e.Weight; nd < dist[v] {
				dist[v] = nd
				parent[v] = eid
				heap.Push(&q, pqItem{v, nd})
			}
		}
	}
	return &SPT{Root: root, Reverse: reverse, Dist: dist, Parent: parent}
}

// tieGraph builds a random directed graph whose weights are small
// integers, so many nodes are reached by several equally short paths
// and the heap's tie order decides the tree.
func tieGraph(rng *rand.Rand, n, m int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(geom.Point{X: float64(i), Y: 0})
	}
	for e := 0; e < m; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		g.AddEdge(NodeID(a), NodeID(b), float64(1+rng.Intn(3)))
	}
	return g
}

func TestTypedHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		g := tieGraph(rng, n, rng.Intn(5*n))
		for root := 0; root < n; root++ {
			for _, reverse := range []bool{false, true} {
				got := g.dijkstra(NodeID(root), reverse)
				want := refDijkstra(g, NodeID(root), reverse)
				for v := 0; v < n; v++ {
					if got.Dist[v] != want.Dist[v] || got.Parent[v] != want.Parent[v] {
						t.Fatalf("trial %d root %d reverse %v node %d: (dist %v, parent %d), container/heap gives (%v, %d)",
							trial, root, reverse, v, got.Dist[v], got.Parent[v], want.Dist[v], want.Parent[v])
					}
				}
			}
		}
	}
}

// TestTypedHeapPopOrder drives both queues with the same random
// push/pop sequence, heavy in equal keys, and requires the same item
// (node and dist) out of every pop.
func TestTypedHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q pq
	var ref refQueue
	for op := 0; op < 20000; op++ {
		if len(q) == 0 || rng.Intn(3) > 0 {
			it := pqItem{node: NodeID(op), dist: float64(rng.Intn(8))}
			q.push(it)
			heap.Push(&ref, it)
			continue
		}
		got, want := q.pop(), heap.Pop(&ref).(pqItem)
		if got != want {
			t.Fatalf("op %d: pop gave %+v, container/heap gives %+v", op, got, want)
		}
	}
}

// TestShortestPathTreeAllocs budgets ShortestPathTree's allocations:
// the SPT and its dist, parent, done and queue slices, with room for the
// queue to grow past its initial capacity — nothing per heap push.
func TestShortestPathTreeAllocs(t *testing.T) {
	g := Grid(rand.New(rand.NewSource(1)), GridConfig{
		Rows: 6, Cols: 6, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	src := NodeID(0)
	allocs := testing.AllocsPerRun(50, func() {
		g.ShortestPathTree(src)
		src = (src + 1) % NodeID(g.NumNodes())
	})
	if allocs > 8 {
		t.Fatalf("ShortestPathTree allocates %v objects per run, want ≤ 8", allocs)
	}
}
