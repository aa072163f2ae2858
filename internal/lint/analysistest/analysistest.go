// Package analysistest runs a vlplint analyzer over a testdata package
// and checks its diagnostics against expectations written in the source
// as end-of-line comments:
//
//	s.hits++ // want `plain write to field`
//
// The backquoted text is a regular expression that must match a
// diagnostic reported on that line; a line may carry several want
// comments for several diagnostics. The harness fails the test on any
// unmatched expectation and on any unexpected diagnostic, so a "clean"
// package (zero want comments) asserts the analyzer stays silent —
// every analyzer in the suite ships one as an over-matching guard.
//
// It mirrors golang.org/x/tools/go/analysis/analysistest closely enough
// that the testdata layout (testdata/src/<pkg>/...) is identical.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// want is one expectation parsed from a // want comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("// want (`[^`]*`|\"[^\"]*\")")

// Run loads testdata/src/<pkg> for each named package, applies the
// analyzer, and diffs diagnostics against want comments. The testdata
// directory is resolved relative to the calling test's working
// directory, which for `go test` is the analyzer's own package dir.
//
//lint:ignore deadcode the harness every analyzer's own test runs; nothing but tests calls it
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	if a.Reset != nil {
		a.Reset()
	}
	l, err := loader.New(".")
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var diags []analysis.Diagnostic
	var allFiles []*ast.File
	requested := make(map[string]bool)
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", pkg)
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		p, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("analysistest: load %s: %v", pkg, err)
		}
		requested[p.Path] = true
		if a.Run != nil {
			pass := &analysis.Pass{
				Fset:      p.Fset,
				Files:     p.Files,
				Pkg:       p.Types,
				TypesInfo: p.Info,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				t.Fatalf("analysistest: %s on %s: %v", a.Name, pkg, err)
			}
		}
		allFiles = append(allFiles, p.Files...)
	}
	if a.RunProgram != nil {
		// A whole-program analyzer sees everything the loader pulled in
		// (the testdata packages plus any module packages they import),
		// but only diagnostics inside the requested testdata packages
		// count against want comments.
		var passes []*analysis.Pass
		for _, p := range l.Loaded() {
			passes = append(passes, &analysis.Pass{
				Fset:      p.Fset,
				Files:     p.Files,
				Pkg:       p.Types,
				TypesInfo: p.Info,
			})
		}
		pp := &analysis.ProgramPass{
			Fset:     l.Fset(),
			Packages: passes,
			InScope:  func(pkgPath string) bool { return requested[pkgPath] },
			Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.RunProgram(pp); err != nil {
			t.Fatalf("analysistest: %s: %v", a.Name, err)
		}
	}
	if a.Finish != nil {
		a.Finish(func(d analysis.Diagnostic) { diags = append(diags, d) })
	}

	wants := parseWants(t, l.Fset(), allFiles)

	// Match every diagnostic against a want on its line.
	var unexpected []string
	for _, d := range diags {
		pos := l.Fset().Position(d.Pos)
		ok := false
		for i := range wants {
			w := &wants[i]
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			unexpected = append(unexpected, fmt.Sprintf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message))
		}
	}
	for _, w := range wants {
		if !w.matched {
			unexpected = append(unexpected, fmt.Sprintf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.re))
		}
	}
	sort.Strings(unexpected)
	for _, msg := range unexpected {
		t.Error(msg)
	}
}

// parseWants scans every comment for want expectations.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					pat := m[1][1 : len(m[1])-1] // strip quotes/backquotes
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("analysistest: bad want pattern %q: %v", pat, err)
					}
					pos := fset.Position(c.Pos())
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}
