// Package deadcode implements the deadcode analyzer: every function
// must be reachable from a root. DESIGN.md "Static analysis" states the
// roots, the edges and the one-finding-per-dead-entry rule.
package deadcode

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:       "deadcode",
	Doc:        "every function must be reachable from a main, an init, a package-level var or the exported API of an importable package",
	RunProgram: run,
}

// refs is what one declaration's identifiers refer to: functions,
// named types, and method names called through an interface.
type refs struct {
	funcs []*types.Func
	types []*types.TypeName
	names []string
}

func run(pp *analysis.ProgramPass) error {
	funcs := make(map[*types.Func]refs) // every declared function
	typeRefs := make(map[*types.TypeName]refs)
	methods := make(map[*types.TypeName][]*types.Func)
	var roots []refs
	for _, pass := range pp.Packages {
		// Importable: neither main nor under an internal/ directory.
		api := pass.Pkg.Name() != "main" && !strings.Contains("/"+pass.Pkg.Path()+"/", "/internal/")
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
					if !ok || d.Name.Name == "_" {
						continue
					}
					funcs[fn] = collect(pass.TypesInfo, d)
					if recv := recvType(fn); recv != nil {
						methods[recv] = append(methods[recv], fn)
					} else if d.Name.Name == "init" || (d.Name.Name == "main" && pass.Pkg.Name() == "main") || (api && fn.Exported()) {
						roots = append(roots, refs{funcs: []*types.Func{fn}})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if s, ok := spec.(*ast.TypeSpec); ok {
							tn, _ := pass.TypesInfo.Defs[s.Name].(*types.TypeName)
							typeRefs[tn] = collect(pass.TypesInfo, s)
						} else if d.Tok == token.VAR {
							roots = append(roots, collect(pass.TypesInfo, spec))
						}
					}
				}
			}
		}
		// The exported methods of an importable package's exported
		// types, promoted ones too, are API even when nothing calls them.
		for _, name := range pass.Pkg.Scope().Names() {
			if tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName); api && ok && tn.Exported() {
				mset := types.NewMethodSet(types.NewPointer(tn.Type()))
				for i := 0; i < mset.Len(); i++ {
					if m := mset.At(i).Obj().(*types.Func); m.Exported() {
						roots = append(roots, refs{funcs: []*types.Func{m.Origin()}})
					}
				}
			}
		}
	}

	// A method is reached once both its type and its name are.
	reached := make(map[*types.Func]bool)
	reachedType := make(map[*types.TypeName]bool)
	names := stdlibMethodNames(pp.Packages)
	var follow func(r refs)
	follow = func(r refs) {
		for _, fn := range r.funcs {
			if body, ok := funcs[fn]; ok && !reached[fn] {
				reached[fn] = true
				follow(body)
			}
		}
		var candidates []*types.Func
		for _, name := range r.names {
			if !names[name] {
				names[name] = true
				for tn := range reachedType {
					candidates = append(candidates, methods[tn]...)
				}
			}
		}
		for _, tn := range r.types {
			if !reachedType[tn] {
				reachedType[tn] = true
				candidates = append(candidates, methods[tn]...)
				follow(typeRefs[tn])
			}
		}
		for _, m := range candidates {
			if names[m.Name()] {
				follow(refs{funcs: []*types.Func{m}})
			}
		}
	}
	for _, r := range roots {
		follow(r)
	}
	report(pp, funcs, reached)
	return nil
}

// recvType returns the named type a concrete method is declared on, or
// nil for a package-level function.
func recvType(fn *types.Func) *types.TypeName {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && analysis.NamedType(recv.Type()) != nil {
		return analysis.NamedType(recv.Type()).Origin().Obj()
	}
	return nil
}

// collect gathers what the identifiers under root refer to. Uses, not
// calls: function values, method values and method expressions count.
func collect(info *types.Info, root ast.Node) refs {
	var r refs
	ast.Inspect(root, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				r.names = append(r.names, obj.Name())
			} else {
				r.funcs = append(r.funcs, obj.Origin())
			}
		case *types.TypeName:
			if named := analysis.NamedType(obj.Type()); named != nil {
				r.types = append(r.types, named.Origin().Obj())
			}
		}
		return true
	})
	return r
}

// stdlibMethodNames returns the method names of every package-level
// interface in the standard library the program imports, directly or
// not, plus those errors.Is, As and Unwrap probe anonymously.
func stdlibMethodNames(pkgs []*analysis.Pass) map[string]bool {
	names := map[string]bool{"Error": true, "Is": true, "As": true, "Unwrap": true}
	seen := make(map[*types.Package]bool)
	var todo []*types.Package
	for _, pass := range pkgs {
		seen[pass.Pkg] = true
		todo = append(todo, pass.Pkg.Imports()...)
	}
	for ; len(todo) > 0; todo = todo[1:] {
		if pkg := todo[0]; !seen[pkg] {
			seen[pkg] = true
			todo = append(todo, pkg.Imports()...)
			for _, name := range pkg.Scope().Names() {
				if iface, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumMethods(); i++ {
						names[iface.Method(i).Name()] = true
					}
				}
			}
		}
	}
	return names
}

// report emits one finding per dead entry: a strongly connected
// component of the dead functions' references that no dead function
// outside it refers to, anchored at its first member in source order.
func report(pp *analysis.ProgramPass, funcs map[*types.Func]refs, reached map[*types.Func]bool) {
	var dead []*types.Func
	for fn := range funcs {
		if !reached[fn] {
			dead = append(dead, fn)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Pos() < dead[j].Pos() })
	// reaches[f] holds the dead functions f refers to, directly or not.
	reaches := make(map[*types.Func]map[*types.Func]bool, len(dead))
	var walk func(from, fn *types.Func)
	walk = func(from, fn *types.Func) {
		for _, m := range funcs[fn].funcs {
			if _, ok := funcs[m]; ok && !reached[m] && !reaches[from][m] {
				reaches[from][m] = true
				walk(from, m)
			}
		}
	}
	for _, fn := range dead {
		reaches[fn] = make(map[*types.Func]bool)
		walk(fn, fn)
	}
	for _, fn := range dead {
		entry := pp.InScope(fn.Pkg().Path())
		var cycle []string
		for _, m := range dead {
			if m == fn || !reaches[m][fn] {
				continue
			}
			// m refers to fn: fn is an entry only if it refers back to
			// m, and a cycle is reported at its first member.
			if !reaches[fn][m] || m.Pos() < fn.Pos() {
				entry = false
				break
			}
			cycle = append(cycle, displayName(m))
		}
		const msg = "%s is unreachable from every main, init, package-level var and exported API"
		if entry && len(cycle) > 0 {
			pp.Reportf(fn.Pos(), msg+" (a dead cycle with %s)", displayName(fn), strings.Join(cycle, ", "))
		} else if entry {
			pp.Reportf(fn.Pos(), msg, displayName(fn))
		}
	}
}

// displayName is fn's name as written in its package: F or T.M.
func displayName(fn *types.Func) string {
	if recv := recvType(fn); recv != nil {
		return recv.Name() + "." + fn.Name()
	}
	return fn.Name()
}
