// Package registry binds the vlplint analyzers to the package scopes
// they police. Analyzers themselves are scope-free (so analysistest can
// aim them at synthetic testdata packages); the scoping lives here, in
// one table, where a reviewer can audit exactly which invariant holds
// where. cmd/vlplint consumes this table.
package registry

import (
	"regexp"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analyzers/atomicstats"
	"repro/internal/lint/analyzers/ctxflow"
	"repro/internal/lint/analyzers/deadcode"
	"repro/internal/lint/analyzers/errflow"
	"repro/internal/lint/analyzers/faultpoint"
	"repro/internal/lint/analyzers/floateq"
	"repro/internal/lint/analyzers/geoigate"
	"repro/internal/lint/analyzers/goctx"
	"repro/internal/lint/analyzers/lockorder"
	"repro/internal/lint/analyzers/nilness"
	"repro/internal/lint/analyzers/nodeterm"
	"repro/internal/lint/analyzers/privtaint"
	"repro/internal/lint/analyzers/shadow"
)

// Scoped is one analyzer plus the import-path scope it runs on.
type Scoped struct {
	Analyzer *analysis.Analyzer
	// Scope matches the import paths the analyzer applies to.
	Scope *regexp.Regexp
	// Why is the one-line rationale shown by vlplint -list.
	Why string
}

// All returns the full suite in a stable order.
func All() []Scoped {
	return []Scoped{
		{
			Analyzer: geoigate.Analyzer,
			Scope:    regexp.MustCompile(`^repro/internal/server$`),
			Why:      "mechanisms decoded from disk/wire must pass the EnforceGeoI repair gate before serving",
		},
		{
			Analyzer: atomicstats.Analyzer,
			Scope:    regexp.MustCompile(`^repro/internal/server$`),
			Why:      "request-path counters are lock-free by contract: atomic fields, atomic accesses",
		},
		{
			Analyzer: ctxflow.Analyzer,
			Scope:    regexp.MustCompile(`^repro/internal/(core|lp|server)$`),
			Why:      "the degradation ladder needs every solve cancellable: no detached contexts, Solve* entry points reach a ctx",
		},
		{
			Analyzer: floateq.Analyzer,
			Scope:    regexp.MustCompile(`^repro/internal/(lp|core|geoi)$`),
			Why:      "Geo-I constraints hold only to tolerance; exact float equality is a latent bug",
		},
		{
			Analyzer: faultpoint.Analyzer,
			Scope:    regexp.MustCompile(`^repro/internal/(store|serial|lp|core|faultinject|server)$`),
			Why:      "every durable I/O site is killable by the chaos suite; site names are unique constants",
		},
		{
			Analyzer: nodeterm.Analyzer,
			Scope:    regexp.MustCompile(`^repro/internal/(lp|geoi|discretize|geom|roadnet)$`),
			Why:      "numeric kernels (sparse LP, SYRK) must be reproducible: no wall clock, no global RNG",
		},
		{
			Analyzer: nilness.Analyzer,
			Scope:    regexp.MustCompile(`^repro(/|$)`),
			Why:      "provably nil dereferences (conservative subset of x/tools nilness, not in go vet's default set)",
		},
		{
			Analyzer: shadow.Analyzer,
			Scope:    regexp.MustCompile(`^repro(/|$)`),
			Why:      "confusing variable shadowing (x/tools shadow, not in go vet's default set)",
		},
		{
			Analyzer: privtaint.Analyzer,
			Scope:    regexp.MustCompile(`^repro/internal/server$`),
			Why:      "whole-program taint: true locations must pass through a Geo-I mechanism sample before any HTTP/log/store sink",
		},
		{
			Analyzer: lockorder.Analyzer,
			Scope:    regexp.MustCompile(`^repro/internal/(server|store|chaos)$`),
			Why:      "whole-program lock graph: mutexes and the lease flock must be acquired in one global order",
		},
		{
			Analyzer: errflow.Analyzer,
			Scope:    regexp.MustCompile(`^repro/internal/(server|store|chaos)$`),
			Why:      "whole-program error flow: durable-I/O and lease errors must be handled, latched, or quarantined, never dropped",
		},
		{
			Analyzer: goctx.Analyzer,
			Scope:    regexp.MustCompile(`^repro/internal/(server|chaos)$`),
			Why:      "whole-program goroutine audit: every spawn must be cancellable via ctx or joined via WaitGroup/drain",
		},
		{
			Analyzer: deadcode.Analyzer,
			Scope:    regexp.MustCompile(`^repro(/|$)`),
			Why:      "whole-program reachability: every function is reached from a main, init, package-level var or the exported repro API",
		},
	}
}
