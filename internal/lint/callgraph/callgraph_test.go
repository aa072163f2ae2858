package callgraph

import (
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	l, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir("testdata/src/cg")
	if err != nil {
		t.Fatal(err)
	}
	pass := &analysis.Pass{Fset: p.Fset, Files: p.Files, Pkg: p.Types, TypesInfo: p.Info}
	return Build([]*analysis.Pass{pass})
}

func (g *Graph) node(t *testing.T, name string) *Node {
	t.Helper()
	for fn, n := range g.Nodes {
		if fn.Name() == name {
			return n
		}
	}
	t.Fatalf("no node %q", name)
	return nil
}

func callees(n *Node) map[string]bool {
	out := make(map[string]bool)
	for _, e := range n.Out {
		out[e.Callee.Func.FullName()] = true
	}
	return out
}

func TestStaticAndInterfaceEdges(t *testing.T) {
	g := buildTestGraph(t)
	top := g.node(t, "top")
	got := callees(top)
	// The interface call resolves to both implementations (CHA), and
	// the static call to ping resolves to exactly ping. Full names
	// embed the synthetic testdata import path; match on the suffix.
	for _, want := range []string{"cg.A).Run", "cg.B).Run"} {
		found := false
		for name := range got {
			if strings.HasSuffix(name, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("top: missing CHA edge to %s (have %v)", want, got)
		}
	}
	if len(top.Out) != 3 {
		t.Errorf("top: want 3 edges (2 CHA + ping), got %d", len(top.Out))
	}
}

func TestSCCOrder(t *testing.T) {
	g := buildTestGraph(t)
	sccs := g.SCCs()
	pos := make(map[*Node]int)
	for i, scc := range sccs {
		for _, n := range scc {
			pos[n] = i
		}
	}
	ping, pong := g.node(t, "ping"), g.node(t, "pong")
	if pos[ping] != pos[pong] {
		t.Errorf("ping and pong should share an SCC (got %d, %d)", pos[ping], pos[pong])
	}
	// Reverse topological: leaf's component comes before its callers'.
	leaf, top := g.node(t, "leaf"), g.node(t, "top")
	if !(pos[leaf] < pos[top]) {
		t.Errorf("leaf SCC (%d) must precede top SCC (%d)", pos[leaf], pos[top])
	}
	aRun := g.node(t, "Run")
	_ = aRun // Run nodes exist; ordering vs top checked via leaf
}
