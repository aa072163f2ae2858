package loader

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestLoadServerPackage exercises the hard case: repro/internal/server
// imports net/http, so the stdlib source importer must type-check a
// large slice of GOROOT from source, offline, with cgo disabled.
func TestLoadServerPackage(t *testing.T) {
	l, err := New(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(l.ModuleRoot + "/internal/server")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Path != "repro/internal/server" {
		t.Fatalf("path = %q", pkg.Path)
	}
	if pkg.Types.Name() != "server" {
		t.Fatalf("package name = %q", pkg.Types.Name())
	}
	if len(pkg.Files) == 0 || len(pkg.Info.Defs) == 0 {
		t.Fatal("no files or type info loaded")
	}
	// The cache must dedupe: loading a dependent package reuses it.
	again, err := l.LoadDir(l.ModuleRoot + "/internal/server")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Fatal("cache miss on second load")
	}
}

// TestLoadTree loads every package in the module, proving the walker
// skips testdata, resolves cross-package imports and, on amd64, leaves
// no file out.
func TestLoadTree(t *testing.T) {
	l, err := New(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"repro":                 false,
		"repro/internal/lp":     false,
		"repro/internal/core":   false,
		"repro/cmd/vlpserved":   false,
		"repro/internal/serial": false,
	}
	for _, p := range pkgs {
		if _, ok := want[p.Path]; ok {
			want[p.Path] = true
		}
	}
	for path, seen := range want {
		if !seen {
			t.Errorf("package %s not loaded", path)
		}
	}
	t.Run("every file", func(t *testing.T) {
		// The loader keeps only the host's build set, so a file gated to
		// another platform (a //go:build line, a _GOOS/_GOARCH name other
		// than the host's) would never be linted. Platform-specific code
		// lives in amd64 files beside portable code every host compiles.
		if runtime.GOARCH != "amd64" {
			t.Skip("the module's platform-specific files are amd64 files")
		}
		loaded := map[string]bool{}
		for _, p := range pkgs {
			for _, f := range p.Files {
				loaded[p.Fset.File(f.Pos()).Name()] = true
			}
		}
		err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if p != l.ModuleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !loaded[p] {
				t.Errorf("%s is not loaded, so no vlplint analyzer sees it", p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
