// Package privtaint implements the privtaint analyzer: a worker's true
// location must leave the program only through a Geo-I mechanism. It
// runs the interprocedural taint engine (internal/lint/taint) over the
// whole-program call graph with the paper's roles:
//
// Sources (where a true location is born):
//   - reading the Locations field of an ObfuscateRequest — the decoded
//     wire batch of raw worker positions
//   - calling Simulate in a package named trace — ground-truth
//     trajectories for experiments
//
// SolveSpec fields are deliberately NOT sources: the spec carries the
// public task instance (network digest, epsilon, discretisation), not
// worker positions.
//
// Sanitizers (the only sanctioned exits):
//   - Sample / SampleInterval methods on a type named Mechanism — the
//     Geo-I draw itself
//   - EnforceGeoI — the repair gate (its output is a certified
//     mechanism, not location data)
//
// Sinks (where raw coordinates must never arrive):
//   - Encode on an Encoder (json/gob wire and store encoding)
//   - AppendObfuscateResponse, the hand-rolled /obfuscate response
//     encoder: it grows its buffer parameter in place, a flow the taint
//     engine does not follow, so the buffer it returns would otherwise
//     reach ResponseWriter.Write looking clean
//   - Write on an http ResponseWriter
//   - fmt.Fprint* stream writes
//   - package log prints and Logger methods
//   - os.WriteFile
//
// Matching is by type/function name, not import path, following the
// suite convention that lets analysistest exercise analyzers on
// synthetic testdata packages.
package privtaint

import (
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/taint"
)

var Analyzer = &analysis.Analyzer{
	Name:       "privtaint",
	Doc:        "true-location values must pass through a Geo-I mechanism sample before reaching any HTTP/log/store/encode sink",
	RunProgram: run,
}

var logNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true,
}

var config = taint.Config{
	SourceField: func(owner *types.Named, field *types.Var) bool {
		return owner.Obj().Name() == "ObfuscateRequest" && field.Name() == "Locations"
	},
	SourceFunc: func(fn *types.Func) bool {
		return fn.Name() == "Simulate" && fn.Pkg() != nil && fn.Pkg().Name() == "trace"
	},
	Sanitizer: func(fn *types.Func) bool {
		if fn.Name() == "EnforceGeoI" {
			return true
		}
		if fn.Name() != "Sample" && fn.Name() != "SampleInterval" {
			return false
		}
		return recvNamed(fn) == "Mechanism"
	},
	Sink: func(fn *types.Func) string {
		if fn.Name() == "AppendObfuscateResponse" {
			return "a wire encoder"
		}
		switch recvNamed(fn) {
		case "Encoder":
			if fn.Name() == "Encode" {
				return "a wire/store encoder"
			}
		case "ResponseWriter":
			if fn.Name() == "Write" {
				return "an HTTP response"
			}
		case "Logger":
			if logNames[fn.Name()] {
				return "a log"
			}
		}
		if fn.Pkg() != nil {
			switch {
			case fn.Pkg().Name() == "fmt" && (fn.Name() == "Fprint" || fn.Name() == "Fprintf" || fn.Name() == "Fprintln"):
				return "a stream write"
			case fn.Pkg().Name() == "log" && logNames[fn.Name()]:
				return "a log"
			case fn.Pkg().Name() == "os" && fn.Name() == "WriteFile":
				return "a file write"
			}
		}
		return ""
	},
}

// recvNamed returns the name of fn's receiver type (behind pointers),
// or "" for package-level functions.
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if n := analysis.NamedType(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return ""
}

func run(pp *analysis.ProgramPass) error {
	g := callgraph.Build(pp.Packages)
	for _, f := range taint.Analyze(g, config) {
		if !pp.InScope(f.Node.Pass.Pkg.Path()) {
			continue
		}
		if f.Via != "" {
			pp.Reportf(f.Pos, "true location reaches %s via call to %s without Geo-I obfuscation; sample through the mechanism first", f.Sink, f.Via)
		} else {
			pp.Reportf(f.Pos, "true location reaches %s without Geo-I obfuscation; sample through the mechanism first", f.Sink)
		}
	}
	return nil
}
