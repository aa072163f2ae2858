// Package ctxflow enforces the solver stack's cancellation contract.
// The degradation ladder only works if every solve can be cancelled —
// a context.Background() buried in library code detaches a subtree from
// the ladder's deadlines, abandonment and shutdown drain. Two rules:
//
//  1. Non-test code must not call context.Background() or
//     context.TODO() outside func main: roots belong to the process
//     entry point (or to tests, which are not analyzed). Documented
//     compatibility wrappers carry a //lint:ignore ctxflow directive.
//
//  2. Every exported function or method whose name starts with "Solve"
//     must be cancellable: it must accept a context.Context parameter,
//     or take an options struct carrying one, or hang off a receiver
//     through which a context is reachable (lp.IPMSolver → ipm → ctx,
//     installed by SetContext). A Solve entry point with no route to a
//     context cannot participate in the ladder; a run-to-completion
//     oracle such as lp.Solve says so in a //lint:ignore ctxflow
//     directive.
package ctxflow

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "forbid context.Background/TODO outside main; exported Solve* entry points must reach a context",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := analysis.Callee(pass.TypesInfo, n)
			if analysis.IsPkgFunc(fn, "context", "Background") || analysis.IsPkgFunc(fn, "context", "TODO") {
				if fd := analysis.EnclosingFuncDecl(stack); fd == nil || fd.Name.Name != "main" {
					pass.Reportf(n.Pos(), "context.%s() outside main detaches this subtree from cancellation; thread the caller's ctx", fn.Name())
				}
			}
		case *ast.FuncDecl:
			checkSolveEntry(pass, n)
		}
		return true
	})
	return nil
}

// checkSolveEntry applies rule 2 to one function declaration.
func checkSolveEntry(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	if !fd.Name.IsExported() || len(name) < 5 || name[:5] != "Solve" {
		return
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if reachesContext(sig.Params().At(i).Type(), 4, nil) {
			return
		}
	}
	if recv := sig.Recv(); recv != nil && reachesContext(recv.Type(), 4, nil) {
		return
	}
	pass.Reportf(fd.Name.Pos(), "exported solve entry point %s cannot be cancelled: no context.Context is reachable from its parameters or receiver", name)
}

// reachesContext reports whether a context.Context can be reached from
// t through pointers and (nested) struct fields, up to the given depth.
func reachesContext(t types.Type, depth int, seen map[types.Type]bool) bool {
	if depth < 0 || t == nil {
		return false
	}
	t = types.Unalias(t)
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	if analysis.IsNamed(t, "context", "Context") {
		return true
	}
	switch u := t.(type) {
	case *types.Pointer:
		return reachesContext(u.Elem(), depth, seen)
	case *types.Named:
		return reachesContext(u.Underlying(), depth-1, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if reachesContext(u.Field(i).Type(), depth, seen) {
				return true
			}
		}
	}
	return false
}
