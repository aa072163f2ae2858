// Package callgraph builds a whole-program call graph over the
// packages the hermetic loader type-checked from source, in the style
// of golang.org/x/tools/go/callgraph/cha: static calls resolve to their
// single target, and dynamic calls through an interface method resolve
// by class-hierarchy analysis to every concrete method in the program
// whose receiver type implements the interface. The result
// over-approximates the true call graph (CHA ignores which concrete
// types actually flow to a call site), which is the right direction for
// the analyzers built on it: a taint path or lock edge is never missed,
// only possibly reported conservatively.
//
// Nodes exist only for functions with source in the loaded program
// (module packages and testdata trees); calls into GOROOT packages have
// no node and are the engine's job to model. Function literals are not
// nodes: call sites inside a literal belong to the enclosing declared
// function, which over-approximates when the literal escapes but keeps
// every flow attributable to a declared function.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/lint/analysis"
)

// Node is one declared function or method with source in the program.
type Node struct {
	// Func is the canonical types object; the map key in Graph.Nodes.
	Func *types.Func
	// Decl is the function's source declaration (body may be nil for
	// assembly-backed declarations).
	Decl *ast.FuncDecl
	// Pass is the package pass the declaration lives in.
	Pass *analysis.Pass
	// Out lists this function's resolved call sites in source order.
	Out []Edge
}

// Edge is one resolved call: Site invokes Callee. A dynamic interface
// call produces one edge per CHA-feasible concrete method.
type Edge struct {
	Site   *ast.CallExpr
	Callee *Node
}

// Graph is the program call graph.
type Graph struct {
	// Nodes maps every declared function in the program to its node.
	Nodes map[*types.Func]*Node
}

// Build constructs the CHA call graph over the given packages. The
// passes must share one types importer (one loader), so a *types.Func
// used in one package is identical to its definition in another.
func Build(pkgs []*analysis.Pass) *Graph {
	g := &Graph{Nodes: make(map[*types.Func]*Node)}

	// Pass 1: one node per declared function, plus the program's
	// concrete named types for interface-call resolution.
	var concrete []types.Type
	for _, pass := range pkgs {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Nodes[fn] = &Node{Func: fn, Decl: fd, Pass: pass}
			}
		}
		scope := pass.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			concrete = append(concrete, named)
		}
	}

	// Pass 2: resolve every call site inside every node's declaration
	// (function literals included — they belong to the enclosing decl).
	for _, node := range g.Nodes {
		if node.Decl.Body == nil {
			continue
		}
		n := node
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(n.Pass.TypesInfo, call)
			if fn == nil {
				return true // call through a function value or a conversion
			}
			if recv := recvInterface(fn); recv != nil {
				for _, callee := range g.implementers(fn, recv, concrete) {
					n.Out = append(n.Out, Edge{Site: call, Callee: callee})
				}
				return true
			}
			if callee, ok := g.Nodes[fn]; ok {
				n.Out = append(n.Out, Edge{Site: call, Callee: callee})
			}
			return true
		})
		sort.SliceStable(n.Out, func(i, j int) bool { return n.Out[i].Site.Pos() < n.Out[j].Site.Pos() })
	}
	return g
}

// recvInterface returns the interface type a method is declared on, or
// nil for package functions and concrete methods.
func recvInterface(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// implementers resolves an interface method call to every concrete
// method in the program whose type satisfies the interface (CHA).
func (g *Graph) implementers(fn *types.Func, iface *types.Interface, concrete []types.Type) []*Node {
	var out []*Node
	for _, t := range concrete {
		impl := t
		if !types.Implements(t, iface) {
			p := types.NewPointer(t)
			if !types.Implements(p, iface) {
				continue
			}
			impl = p
		}
		sel := types.NewMethodSet(impl).Lookup(fn.Pkg(), fn.Name())
		if sel == nil {
			continue
		}
		m, ok := sel.Obj().(*types.Func)
		if !ok {
			continue
		}
		if node, ok := g.Nodes[m]; ok {
			out = append(out, node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i].Func, out[j].Func) })
	return out
}

// less orders functions deterministically: by package path, then full
// name, then declaration position.
func less(a, b *types.Func) bool {
	ap, bp := pkgPath(a), pkgPath(b)
	if ap != bp {
		return ap < bp
	}
	if a.FullName() != b.FullName() {
		return a.FullName() < b.FullName()
	}
	return a.Pos() < b.Pos()
}

func pkgPath(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// SortedNodes returns the graph's nodes ordered deterministically.
func (g *Graph) SortedNodes() []*Node {
	nodes := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return less(nodes[i].Func, nodes[j].Func) })
	return nodes
}

// SCCs returns the graph's strongly connected components in reverse
// topological order: every component appears after the components it
// calls into, so a bottom-up summary computation can process them in
// slice order and only iterate within a component (Tarjan's algorithm
// emits components in exactly this order).
func (g *Graph) SCCs() [][]*Node {
	type state struct {
		index, low int
		onStack    bool
	}
	var (
		sccs    [][]*Node
		stack   []*Node
		states  = make(map[*Node]*state, len(g.Nodes))
		counter = 0
	)
	var strongconnect func(n *Node)
	strongconnect = func(n *Node) {
		st := &state{index: counter, low: counter}
		counter++
		states[n] = st
		stack = append(stack, n)
		st.onStack = true
		for _, e := range n.Out {
			if e.Callee == nil {
				continue
			}
			ws, seen := states[e.Callee]
			if !seen {
				strongconnect(e.Callee)
				if cs := states[e.Callee]; cs.low < st.low {
					st.low = cs.low
				}
			} else if ws.onStack && ws.index < st.low {
				st.low = ws.index
			}
		}
		if st.low == st.index {
			var scc []*Node
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				states[m].onStack = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range g.SortedNodes() {
		if _, seen := states[n]; !seen {
			strongconnect(n)
		}
	}
	return sccs
}

// Pos returns a deterministic anchor position for a node.
func (n *Node) Pos() token.Pos { return n.Decl.Name.Pos() }
