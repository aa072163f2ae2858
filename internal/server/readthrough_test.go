package server

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/serial"
	"repro/internal/store"
)

// churnSpecs returns n specs shaped like perfbench's serve-churn pool:
// one K=45 network (4×4 grid at δ 0.3), ε 4, and a prior per spec that
// jitters a shared base by ±0.1%.
func churnSpecs(tb testing.TB, n int) []*serial.SolveSpec {
	tb.Helper()
	g := roadnet.Grid(rand.New(rand.NewSource(1)), roadnet.GridConfig{
		Rows: 4, Cols: 4, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	net := serial.FromGraph(g)
	rng := rand.New(rand.NewSource(7))
	base := make([]float64, 45)
	for i := range base {
		base[i] = 0.2 + rng.Float64()
	}
	specs := make([]*serial.SolveSpec, n)
	for s := range specs {
		prior := make([]float64, len(base))
		sum := 0.0
		for i, b := range base {
			prior[i] = b * (1 + 0.001*(2*rng.Float64()-1))
			sum += prior[i]
		}
		for i := range prior {
			prior[i] /= sum
		}
		specs[s] = &serial.SolveSpec{Network: net, Delta: 0.3, Epsilon: 4, Prior: prior}
	}
	return specs
}

// readThroughFixture commits two churn specs to a store through a server
// that keeps both cached, so the second spec's geometry is indexed, and
// returns the server with the second spec: entryFromStore on it then
// runs the read-through a churn miss runs.
func readThroughFixture(tb testing.TB) (*Server, string, *serial.SolveSpec) {
	tb.Helper()
	st, err := store.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	srv := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	specs := churnSpecs(tb, 2)
	for _, spec := range specs {
		if _, _, err := srv.mechanismFor(context.Background(), spec); err != nil {
			tb.Fatal(err)
		}
	}
	spec := specs[1]
	key := spec.Digest()
	if e := srv.entryFromStore(key, spec); e == nil || e.prob.Part.K() != 45 {
		tb.Fatal("churn spec not loadable from the store at K=45")
	}
	return srv, key, spec
}

// BenchmarkStoreReadThrough times one store read-through of a K=45
// serve-churn spec whose geometry a cached entry already holds: load
// and decode the snapshot, build the prior's cost matrix, validate, and
// check the full Geo-I constraint set.
func BenchmarkStoreReadThrough(b *testing.B) {
	srv, key, spec := readThroughFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if srv.entryFromStore(key, spec) == nil {
			b.Fatal("read-through failed")
		}
	}
}

// TestStoreReadThroughAllocs pins the allocations of that read-through.
// Deriving the partition, costs and constraint pairs per read-through
// took 212.
func TestStoreReadThroughAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 35
	srv, key, spec := readThroughFixture(t)
	if got := testing.AllocsPerRun(50, func() {
		if srv.entryFromStore(key, spec) == nil {
			t.Fatal("read-through failed")
		}
	}); got > budget {
		t.Fatalf("store read-through allocates %v per op, budget %d", got, budget)
	}
}

// TestGeometrySharedAcrossSpecs: concurrent read-throughs and solves of
// specs on one network share the geometry of their (ε, r) and nothing
// else — each entry has its own priors and costs and prices its
// mechanism bit-equal to a fresh derivation — and evicting every entry
// of a geometry drops it from the index. Run under -race in CI.
func TestGeometrySharedAcrossSpecs(t *testing.T) {
	base := testSpecs(t, 1)[0]
	pr, err := base.Problem()
	if err != nil {
		t.Fatal(err)
	}
	k := pr.Part.K()
	rng := rand.New(rand.NewSource(9))
	spec := func(eps, radius float64) *serial.SolveSpec {
		prior := make([]float64, k)
		sum := 0.0
		for i := range prior {
			prior[i] = 0.2 + rng.Float64()
			sum += prior[i]
		}
		for i := range prior {
			prior[i] /= sum
		}
		return &serial.SolveSpec{Network: base.Network, Delta: base.Delta, Epsilon: eps, Radius: radius, Prior: prior}
	}
	// Three geometries on one network: ε 2, ε 3, and ε 2 cut at r 0.4.
	// Per geometry, a seed spec and two stored specs go through the store
	// first; two fresh specs cold-solve alongside the read-throughs.
	type group struct{ seed, stored, fresh []*serial.SolveSpec }
	groups := []group{}
	for _, p := range []struct{ eps, radius float64 }{{2, 0}, {3, 0}, {2, 0.4}} {
		groups = append(groups, group{
			seed:   []*serial.SolveSpec{spec(p.eps, p.radius)},
			stored: []*serial.SolveSpec{spec(p.eps, p.radius), spec(p.eps, p.radius)},
			fresh:  []*serial.SolveSpec{spec(p.eps, p.radius), spec(p.eps, p.radius)},
		})
	}

	st := testStore(t)
	writer := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	for _, g := range groups {
		for _, s := range append(g.seed, g.stored...) {
			if _, _, err := writer.mechanismFor(context.Background(), s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := writer.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	const cacheSize = 15
	srv := New(context.Background(), Config{Store: st, CacheSize: cacheSize, MaxSolves: 6, DisableUpgrade: true})
	for _, g := range groups {
		if _, _, err := srv.mechanismFor(context.Background(), g.seed[0]); err != nil {
			t.Fatal(err)
		}
	}
	var all []*serial.SolveSpec
	for _, g := range groups {
		all = append(all, g.stored...)
		all = append(all, g.fresh...)
	}
	got := make([]*entry, len(all))
	var wg sync.WaitGroup
	for i, s := range all {
		wg.Add(1)
		go func(i int, s *serial.SolveSpec) {
			defer wg.Done()
			e, _, err := srv.mechanismFor(context.Background(), s)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = e
		}(i, s)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if snap := srv.Stats(); snap.StoreLoads != 9 || snap.Solves != 6 {
		t.Fatalf("store_loads %d solves %d, want 9 read-throughs and 6 solves", snap.StoreLoads, snap.Solves)
	}

	for gi, g := range groups {
		seed, _, _ := srv.mechanismFor(context.Background(), g.seed[0])
		for i := gi * 4; i < gi*4+4; i++ {
			e := got[i]
			if e.prob.Geometry != seed.prob.Geometry {
				t.Errorf("spec %d did not reuse its geometry", i)
			}
			if &e.prob.PriorP[0] == &seed.prob.PriorP[0] || &e.prob.Costs[0] == &seed.prob.Costs[0] {
				t.Errorf("spec %d shares priors or costs with its geometry's seed", i)
			}
			fresh, err := all[i].Problem()
			if err != nil {
				t.Fatal(err)
			}
			for idx, c := range fresh.Costs {
				if math.Float64bits(c) != math.Float64bits(e.prob.Costs[idx]) {
					t.Fatalf("spec %d: c[%d] = %v, fresh derivation %v", i, idx, e.prob.Costs[idx], c)
				}
			}
			if a, b := fresh.ETDD(e.mech), e.etdd; math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("spec %d: entry ETDD %v, fresh derivation prices it %v", i, b, a)
			}
			assertServable(t, e)
		}
		for hi := range groups[:gi] {
			other, _, _ := srv.mechanismFor(context.Background(), groups[hi].seed[0])
			if other.prob.Geometry == seed.prob.Geometry {
				t.Errorf("geometries %d and %d differ in ε or r but are shared", hi, gi)
			}
		}
	}

	srv.cache.mu.Lock()
	indexed := len(srv.cache.geoms)
	srv.cache.mu.Unlock()
	if indexed != len(groups) {
		t.Fatalf("index holds %d geometries, want %d", indexed, len(groups))
	}
	// Push every real entry out of the LRU.
	for i := 0; i < cacheSize; i++ {
		key := string(rune('a' + i))
		srv.cache.add(key, &entry{key: key})
	}
	for _, g := range groups {
		if geo, _ := srv.cache.geometry(geomKey(g.seed[0].GeometryKey())); geo != nil {
			t.Errorf("evicted geometry for ε %v r %v still indexed", g.seed[0].Epsilon, g.seed[0].Radius)
		}
	}
}
