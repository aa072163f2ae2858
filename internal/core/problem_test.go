package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/discretize"
	"repro/internal/geoi"
	"repro/internal/roadnet"
)

// TestNewProblemDefersReduction: building a problem and checking and
// pricing a feasible mechanism against it (the store read-through)
// never runs Algorithm 1 or the metric; the first Red/Sym calls build
// exactly what eager construction used to.
func TestNewProblemDefersReduction(t *testing.T) {
	seedPr := smallProblem(t, 21, 4)
	m := seedPr.ExponentialMechanism()

	pr := smallProblem(t, 21, 4)
	if red, sym := pr.Built(); red || sym {
		t.Fatalf("NewProblem built red=%v sym=%v, want neither", red, sym)
	}
	served, _, err := pr.EnforceGeoI(m, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if served != m {
		t.Fatal("a feasible mechanism was repaired")
	}
	pr.ETDD(m)
	if red, sym := pr.Built(); red || sym {
		t.Fatalf("checking a feasible mechanism built red=%v sym=%v, want neither", red, sym)
	}

	aux := pr.Part.AuxGraph()
	if got, want := pr.Red(), geoi.Reduce(pr.Part, aux, pr.Radius); !reflect.DeepEqual(got, want) {
		t.Fatalf("lazy reduction differs from Reduce: %d vs %d pairs", len(got.Pairs), len(want.Pairs))
	}
	// SymmetrizedDistances inserts edges in map order, so equal-length
	// routes may sum in a different order from run to run: compare to
	// rounding.
	got, want := pr.Sym(), geoi.SymmetrizedDistances(aux)
	for i := 0; i < pr.Part.K(); i++ {
		for l := 0; l < pr.Part.K(); l++ {
			a, b := got.Dist(roadnet.NodeID(i), roadnet.NodeID(l)), want.Dist(roadnet.NodeID(i), roadnet.NodeID(l))
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("lazy metric d(%d,%d) = %v, SymmetrizedDistances gives %v", i, l, a, b)
			}
		}
	}
	if red, sym := pr.Built(); !red || !sym {
		t.Fatalf("after first use built red=%v sym=%v, want both", red, sym)
	}
}

// TestEnforceGeoIRepairBuildsOnlySym: repairing a perturbed matrix
// needs the exponential mechanism, hence the metric, but still not the
// reduction; the repaired mechanism is feasible.
func TestEnforceGeoIRepairBuildsOnlySym(t *testing.T) {
	seedPr := smallProblem(t, 22, 4)
	k := seedPr.Part.K()
	z := append([]float64(nil), seedPr.ExponentialMechanism().Z...)
	z[0] += 0.05 // row 0 leans on its own interval beyond what ε allows
	normalizeRows(z, k)
	bad := &Mechanism{Part: seedPr.Part, Z: z}

	pr := smallProblem(t, 22, 4)
	if v := pr.GeoIViolation(bad); v <= 1e-9 {
		t.Fatalf("perturbation left the matrix feasible (violation %g)", v)
	}
	served, etdd, err := pr.EnforceGeoI(bad, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if v := pr.GeoIViolation(served); v > 1e-9 {
		t.Fatalf("repaired mechanism violates Geo-I by %g", v)
	}
	if err := served.Validate(); err != nil {
		t.Fatal(err)
	}
	if etdd != pr.ETDD(served) {
		t.Fatalf("reported ETDD %v, mechanism prices at %v", etdd, pr.ETDD(served))
	}
	if red, sym := pr.Built(); red || !sym {
		t.Fatalf("repair built red=%v sym=%v, want sym only", red, sym)
	}
}

// TestRedSymConcurrentFirstUse: racing first calls build once and all
// see the same reduction and metric (run under -race in CI).
func TestRedSymConcurrentFirstUse(t *testing.T) {
	pr := smallProblem(t, 23, 4)
	const n = 8
	reds := make([]*geoi.Reduced, n)
	syms := make([]*roadnet.DistMatrix, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				reds[g], syms[g] = pr.Red(), pr.Sym()
			} else {
				syms[g], reds[g] = pr.Sym(), pr.Red()
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < n; g++ {
		if reds[g] != reds[0] || syms[g] != syms[0] {
			t.Fatalf("goroutine %d got a different reduction or metric", g)
		}
	}
}

// TestNewCustomProblemKeepsSuppliedPairs: a custom problem's pairs and
// metric are the caller's, returned as given, and nothing is derived
// from the road geometry in their place.
func TestNewCustomProblemKeepsSuppliedPairs(t *testing.T) {
	g := roadnet.Grid(rand.New(rand.NewSource(24)), roadnet.GridConfig{
		Rows: 2, Cols: 2, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.2,
	})
	part, err := discretize.New(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	k := part.K()
	pairs := []geoi.UnorderedPair{{A: 0, B: 1, D: 0.2}, {A: 1, B: 2, D: 0.3}}
	sym := part.AuxGraph().AllPairs()
	pr, err := NewCustomProblem(part, 2, 0, nil, make([]float64, k*k), pairs, sym)
	if err != nil {
		t.Fatal(err)
	}
	got := pr.Red().Pairs
	if len(got) != len(pairs) || &got[0] != &pairs[0] {
		t.Fatalf("custom pairs not returned as supplied: %+v", got)
	}
	if pr.Sym() != sym {
		t.Fatal("custom metric not returned as supplied")
	}
	if red, s := pr.Built(); red || s {
		t.Fatalf("custom problem derived red=%v sym=%v from the road geometry", red, s)
	}
	if _, err := NewCustomProblem(part, 2, 0, nil, make([]float64, k*k), pairs, nil); err == nil {
		t.Fatal("accepted a custom problem without a seeding metric")
	}
}

// BenchmarkNewProblem times problem construction on a 4×4 grid at
// δ = 0.3 (K = 45): priors, validation and the cost matrix.
func BenchmarkNewProblem(b *testing.B) {
	g := roadnet.Grid(rand.New(rand.NewSource(1)), roadnet.GridConfig{
		Rows: 4, Cols: 4, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	part, err := discretize.New(g, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewProblem(part, Config{Epsilon: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGeoIViolation checks the Geo-I oracle on two known mechanisms: the
// ε/2 exponential mechanism over the symmetrized metric satisfies ε-Geo-I
// (the metric's triangle inequality bounds both the numerator ratio and
// the normalisation ratio by e^{(ε/2)·d}, and the metric lower-bounds
// d_min), while the identity mechanism grossly violates it.
func TestGeoIViolation(t *testing.T) {
	pr := smallProblem(t, 8, 3)
	if v := pr.GeoIViolation(pr.ExponentialMechanism()); v > 1e-9 {
		t.Fatalf("exponential mechanism violates Geo-I by %v", v)
	}
	k := pr.Part.K()
	id := &Mechanism{Part: pr.Part, Z: make([]float64, k*k)}
	for i := 0; i < k; i++ {
		id.Z[i*k+i] = 1
	}
	if v := pr.GeoIViolation(id); v <= 0 {
		t.Fatalf("identity mechanism reported Geo-I-compliant (violation %v)", v)
	}
}

// TestEnforceGeoIRejectsNonFinite: a mechanism with a NaN row or an
// infinite entry scores +Inf on the Geo-I check, so EnforceGeoI never
// returns it; it falls to the exponential rung, which is finite and
// feasible.
func TestEnforceGeoIRejectsNonFinite(t *testing.T) {
	pr := smallProblem(t, 25, 4)
	k := pr.Part.K()
	for name, poison := range map[string]func(z []float64){
		"nan-row": func(z []float64) {
			for j := 0; j < k; j++ {
				z[3*k+j] = math.NaN()
			}
		},
		"inf-entry": func(z []float64) { z[5*k+7] = math.Inf(1) },
	} {
		z := append([]float64(nil), pr.ExponentialMechanism().Z...)
		poison(z)
		bad := &Mechanism{Part: pr.Part, Z: z}
		if v := pr.GeoIViolation(bad); !math.IsInf(v, 1) {
			t.Errorf("%s: GeoIViolation = %v, want +Inf", name, v)
		}
		served, etdd, err := pr.EnforceGeoI(bad, GeoITol)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if served == bad {
			t.Fatalf("%s: EnforceGeoI returned the non-finite mechanism", name)
		}
		if math.IsNaN(etdd) || math.IsInf(etdd, 0) {
			t.Errorf("%s: served ETDD %v", name, etdd)
		}
		if err := served.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if v := pr.GeoIViolation(served); v > GeoITol {
			t.Errorf("%s: served mechanism violates Geo-I by %g", name, v)
		}
	}
}
