// Command vlplint is the multichecker driver for the repo's custom
// static-analysis suite (internal/lint): it mechanically enforces the
// solver stack's safety contracts — the Geo-I repair gate, lock-free
// stats counters, context plumbing, tolerance-based float comparison,
// chaos-suite fault coverage, and kernel determinism — plus nilness and
// shadow checks that go vet does not run by default, and the
// whole-program analyzers (privtaint, lockorder, errflow, goctx,
// deadcode) that track taint, lock order, error flow, goroutine
// lifecycles and reachability across function and package boundaries.
//
// Usage:
//
//	go run ./cmd/vlplint ./...               # analyze the whole module (ci.sh gate)
//	go run ./cmd/vlplint -list               # print the invariant catalogue
//	go run ./cmd/vlplint -json ./...         # machine-readable findings on stdout
//	go run ./cmd/vlplint -baseline lint.baseline.json ./...
//
// With -baseline, findings recorded in the given JSON file (the same
// schema -json emits) are subtracted before the exit code is decided.
// The checked-in baseline is empty — the tree owes zero findings — and
// exists so a future emergency can land with a recorded debt instead
// of a weakened analyzer.
//
// vlplint exits non-zero if any finding survives; a false positive is
// silenced in the source with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on (or directly above) the offending line. The reason is mandatory
// and a directive that suppresses nothing is itself an error, so stale
// ignores cannot accumulate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/directive"
	"repro/internal/lint/loader"
	"repro/internal/lint/registry"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and their scopes, then exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	baselinePath := flag.String("baseline", "", "JSON file of known findings to subtract (the ratchet)")
	flag.Parse()

	suite := registry.All()
	if *list {
		// Sorted by scope then analyzer name so the catalogue (and any
		// diff over it) is stable.
		rows := make([]registry.Scoped, len(suite))
		copy(rows, suite)
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Scope.String() != rows[j].Scope.String() {
				return rows[i].Scope.String() < rows[j].Scope.String()
			}
			return rows[i].Analyzer.Name < rows[j].Analyzer.Name
		})
		for _, s := range rows {
			fmt.Printf("%-12s scope %-50s %s\n", s.Analyzer.Name, s.Scope, s.Why)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	records, err := run(suite, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vlplint:", err)
		os.Exit(2)
	}
	if *baselinePath != "" {
		records, err = subtractBaseline(records, *baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vlplint:", err)
			os.Exit(2)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if records == nil {
			records = []record{}
		}
		if err := enc.Encode(records); err != nil {
			fmt.Fprintln(os.Stderr, "vlplint:", err)
			os.Exit(2)
		}
	} else {
		for _, r := range records {
			fmt.Printf("%s:%d:%d: %s (%s)\n", r.File, r.Line, r.Col, r.Message, r.Analyzer)
		}
	}
	if len(records) > 0 {
		fmt.Fprintf(os.Stderr, "vlplint: %d finding(s)\n", len(records))
		os.Exit(1)
	}
}

// record is one finding in output order: file, line, col, analyzer,
// message — the sort key and the JSON schema are the same thing.
type record struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// finding is one pre-suppression diagnostic with its analyzer tag.
type finding struct {
	analyzer string
	d        analysis.Diagnostic
}

func run(suite []registry.Scoped, patterns []string) ([]record, error) {
	l, err := loader.New(".")
	if err != nil {
		return nil, err
	}
	for _, s := range suite {
		if s.Analyzer.Reset != nil {
			s.Analyzer.Reset()
		}
	}

	var pkgs []*loader.Package
	for _, pat := range patterns {
		ps, err := l.Load(pat)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, ps...)
	}
	requested := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		requested[pkg.Path] = true
	}

	var all []finding
	var ignores []directive.Ignore
	var records []record
	rel := func(filename string) string {
		if r, err := filepath.Rel(l.ModuleRoot, filename); err == nil {
			return filepath.ToSlash(r)
		}
		return filename
	}
	for _, pkg := range pkgs {
		ok, malformed := directive.Parse(pkg.Fset, pkg.Files)
		ignores = append(ignores, ok...)
		for _, m := range malformed {
			pos := pkg.Fset.Position(m.Pos)
			records = append(records, record{
				File: rel(pos.Filename), Line: pos.Line, Col: pos.Column,
				Analyzer: "directive",
				Message:  "malformed //lint:ignore directive: need `//lint:ignore analyzer[,analyzer] reason`",
			})
		}
		for _, s := range suite {
			if s.Analyzer.Run == nil || !s.Scope.MatchString(pkg.Path) {
				continue
			}
			a := s.Analyzer
			pass := &analysis.Pass{
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d analysis.Diagnostic) {
					all = append(all, finding{a.Name, d})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	// Whole-program analyzers see the whole module whatever was
	// requested — summaries must cross package boundaries, and deadcode's
	// roots are every main — but only report inside packages that were
	// both requested and in scope.
	if _, err := l.Load("./..."); err != nil {
		return nil, err
	}
	var passes []*analysis.Pass
	for _, p := range l.Loaded() {
		passes = append(passes, &analysis.Pass{
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
		})
	}
	for _, s := range suite {
		if s.Analyzer.RunProgram == nil {
			continue
		}
		a := s.Analyzer
		scope := s.Scope
		pp := &analysis.ProgramPass{
			Fset:     l.Fset(),
			Packages: passes,
			InScope: func(pkgPath string) bool {
				return requested[pkgPath] && scope.MatchString(pkgPath)
			},
			Report: func(d analysis.Diagnostic) {
				all = append(all, finding{a.Name, d})
			},
		}
		if err := a.RunProgram(pp); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	// Cross-package finishers (faultpoint's uniqueness check).
	for _, s := range suite {
		if s.Analyzer.Finish != nil {
			a := s.Analyzer
			a.Finish(func(d analysis.Diagnostic) {
				all = append(all, finding{a.Name, d})
			})
		}
	}

	// Apply suppression directives; track which ones earned their keep.
	used := make([]bool, len(ignores))
	for _, f := range all {
		pos := l.Fset().Position(f.d.Pos)
		suppressed := false
		for i := range ignores {
			if ignores[i].Covers(f.analyzer, pos.Filename, pos.Line) {
				used[i] = true
				suppressed = true
			}
		}
		if !suppressed {
			records = append(records, record{
				File: rel(pos.Filename), Line: pos.Line, Col: pos.Column,
				Analyzer: f.analyzer, Message: f.d.Message,
			})
		}
	}
	for i, ig := range ignores {
		if !used[i] {
			records = append(records, record{
				File: rel(ig.File), Line: ig.Line, Col: 1,
				Analyzer: "directive",
				Message:  "//lint:ignore directive suppresses nothing; delete it",
			})
		}
	}
	sort.Slice(records, func(i, j int) bool {
		a, b := records[i], records[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return records, nil
}

// subtractBaseline removes findings recorded in the baseline file.
// Matching ignores line/col so a baseline survives unrelated edits to
// the same file.
func subtractBaseline(records []record, path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var base []record
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	type key struct{ file, analyzer, message string }
	known := make(map[key]bool, len(base))
	for _, b := range base {
		known[key{b.File, b.Analyzer, b.Message}] = true
	}
	var out []record
	for _, r := range records {
		if !known[key{r.File, r.Analyzer, r.Message}] {
			out = append(out, r)
		}
	}
	return out, nil
}
