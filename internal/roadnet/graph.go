// Package roadnet models the road network of the VLP paper: a weighted
// directed graph whose nodes are road connections embedded in the plane
// and whose edges are one-way road segments (a two-way street is a pair
// of anti-parallel edges). Workers and tasks live *on* edges, addressed
// by the paper's (edge, distance-to-endpoint) convention, and all
// distances are shortest *traveling* distances over the graph rather than
// Euclidean distances.
package roadnet

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// NodeID identifies a connection (graph vertex).
type NodeID int32

// EdgeID identifies a directed road segment.
type EdgeID int32

// NoEdge marks the absence of an edge (for example, the root of a
// shortest-path tree).
const NoEdge EdgeID = -1

// Node is a road connection with a planar position.
type Node struct {
	ID  NodeID
	Pos geom.Point
}

// Edge is a directed road segment from From to To with a positive travel
// weight in kilometres. The paper's v_e^s is From and v_e^e is To.
type Edge struct {
	ID     EdgeID
	From   NodeID
	To     NodeID
	Weight float64
}

// Graph is a weighted directed road network. The zero value is an empty
// graph ready to use.
type Graph struct {
	nodes []Node
	edges []Edge
	out   [][]EdgeID
	in    [][]EdgeID
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode inserts a connection at pos and returns its ID.
func (g *Graph) AddNode(pos geom.Point) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Pos: pos})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddEdge inserts a directed segment. A non-positive weight selects the
// Euclidean distance between the endpoints. It panics when the endpoints
// coincide in position and no weight is given, since a zero-length road
// segment is meaningless.
func (g *Graph) AddEdge(from, to NodeID, weight float64) EdgeID {
	if weight <= 0 {
		weight = geom.Dist(g.nodes[from].Pos, g.nodes[to].Pos)
		if weight == 0 {
			panic("roadnet: zero-length edge with no explicit weight")
		}
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Weight: weight})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// AddTwoWay inserts the anti-parallel edge pair modelling a two-way
// street and returns both edge IDs.
func (g *Graph) AddTwoWay(a, b NodeID, weight float64) (EdgeID, EdgeID) {
	return g.AddEdge(a, b, weight), g.AddEdge(b, a, weight)
}

// NumNodes returns the number of connections.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of directed segments.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// OutEdges returns the edges leaving n. The slice must not be modified.
func (g *Graph) OutEdges(n NodeID) []EdgeID { return g.out[n] }

// InEdges returns the edges entering n. The slice must not be modified.
func (g *Graph) InEdges(n NodeID) []EdgeID { return g.in[n] }

// TotalLength returns the summed weight of all directed segments.
func (g *Graph) TotalLength() float64 {
	tot := 0.0
	for _, e := range g.edges {
		tot += e.Weight
	}
	return tot
}

// EdgePoint returns the planar position of the point on edge e at the
// given distance from the edge's start, assuming a straight segment.
func (g *Graph) EdgePoint(e EdgeID, fromStart float64) geom.Point {
	ed := g.edges[e]
	t := geom.Clamp(fromStart/ed.Weight, 0, 1)
	return geom.Lerp(g.nodes[ed.From].Pos, g.nodes[ed.To].Pos, t)
}

// StronglyConnected reports whether every node can reach every other
// node, which the VLP discretisation requires (otherwise some travel
// distances are infinite). It runs two BFS passes from node 0.
func (g *Graph) StronglyConnected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	reach := func(adj [][]EdgeID, endpoint func(Edge) NodeID) int {
		seen := make([]bool, n)
		stack := []NodeID{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, eid := range adj[u] {
				v := endpoint(g.edges[eid])
				if !seen[v] {
					seen[v] = true
					count++
					stack = append(stack, v)
				}
			}
		}
		return count
	}
	fwd := reach(g.out, func(e Edge) NodeID { return e.To })
	bwd := reach(g.in, func(e Edge) NodeID { return e.From })
	return fwd == n && bwd == n
}

// Validate checks structural invariants and returns a descriptive error
// for the first violation found.
func (g *Graph) Validate() error {
	for _, e := range g.edges {
		if e.Weight <= 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return fmt.Errorf("roadnet: edge %d has invalid weight %v", e.ID, e.Weight)
		}
		if int(e.From) >= len(g.nodes) || int(e.To) >= len(g.nodes) || e.From < 0 || e.To < 0 {
			return fmt.Errorf("roadnet: edge %d references missing node", e.ID)
		}
		if e.From == e.To {
			return fmt.Errorf("roadnet: edge %d is a self-loop", e.ID)
		}
	}
	return nil
}
