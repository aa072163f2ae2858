package server

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/serial"
	"repro/internal/store"
)

// at returns a copy of spec at ε and r: another geometry on the same
// network.
func at(spec *serial.SolveSpec, eps, r float64) *serial.SolveSpec {
	c := *spec
	c.Epsilon, c.Radius = eps, r
	return &c
}

// donorOf returns the donor state indexed for spec's geometry.
func donorOf(srv *Server, spec *serial.SolveSpec) *core.CGState {
	_, donor := srv.cache.geometry(geomKey(spec.GeometryKey()))
	return donor
}

// solveVia runs spec through the cache miss path, as /solve does.
func solveVia(t *testing.T, srv *Server, spec *serial.SolveSpec) *entry {
	t.Helper()
	e, _, err := srv.mechanismFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDonorPool checks the donor rule: only a cached optimal solve that
// started from seed columns or the stored pool checkpoint donates its
// final state to its geometry; cold solves of other specs on that
// geometry resume from it, before the stored checkpoint; the donor never
// crosses ε or r, never grows, and leaves with the geometry's last
// cached entry.
func TestDonorPool(t *testing.T) {
	// serve-churn's specs: one K=45 network at ε 4, a ±0.1% prior jitter
	// per spec.
	pool := churnSpecs(t, 33)
	next := func() *serial.SolveSpec {
		spec := pool[0]
		pool = pool[1:]
		return spec
	}

	t.Run("seeded-optimal-donates", func(t *testing.T) {
		srv := New(context.Background(), Config{CacheSize: 64, MaxSolves: 4, DisableUpgrade: true})
		first := next()
		solveVia(t, srv, first)
		donor := donorOf(srv, first)
		if donor == nil {
			t.Fatal("a seeded optimal solve left no donor")
		}
		columns := donor.Columns()

		// 20 donor solves, four at a time: the shared donor is read
		// concurrently and must neither grow nor be replaced.
		specs := make([]*serial.SolveSpec, 20)
		for i := range specs {
			specs[i] = next()
		}
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(specs); i += len(errs) {
					if _, _, err := srv.mechanismFor(context.Background(), specs[i]); err != nil {
						errs[w] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		// A donor-resumed solve offers no state of its own.
		if e, err := srv.solve(context.Background(), next(), true); err != nil || e.pool != nil {
			t.Errorf("donor-resumed solve: donates %v, err %v", err == nil && e.pool != nil, err)
		}
		if got := srv.Stats().DonorSolves; got != 21 {
			t.Errorf("donor_solves = %d, want 21", got)
		}
		if now := donorOf(srv, first); now != donor || now.Columns() != columns {
			t.Errorf("donor changed: %d columns, want the seeded solve's %d", now.Columns(), columns)
		}

		// A donor-resumed entry is exactly core.SolveCG resumed from the
		// same donor and repaired by EnforceGeoI.
		spec := specs[len(specs)-1]
		e, ok := srv.cache.get(spec.Digest())
		if !ok {
			t.Fatal("donor-resumed entry not cached")
		}
		pr, err := spec.Problem()
		if err != nil {
			t.Fatal(err)
		}
		opts := srv.cfg.CG
		opts.Resume = donor
		res, err := core.SolveCG(pr, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := pr.EnforceGeoI(res.Mechanism, core.GeoITol)
		if err != nil {
			t.Fatal(err)
		}
		for i, z := range want.Z {
			if math.Float64bits(z) != math.Float64bits(e.mech.Z[i]) {
				t.Fatalf("Z[%d] = %v served, %v from core.SolveCG on the same donor", i, e.mech.Z[i], z)
			}
		}
		assertServable(t, e)
	})

	t.Run("degraded-does-not-donate", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		srv := New(context.Background(), Config{DisableUpgrade: true, CG: core.CGOptions{
			Xi: -1e-9, RelGap: -1,
			OnIteration: func(iter int, _ core.CGIteration) {
				if iter == 0 {
					cancel()
				}
			},
		}})
		spec := next()
		e, err := srv.solve(ctx, spec, true)
		if err != nil {
			t.Fatal(err)
		}
		if e.tier != serial.QualityIncumbent {
			t.Fatalf("tier %q, want incumbent", e.tier)
		}
		e.key = spec.Digest()
		srv.cache.add(e.key, e)
		if donorOf(srv, spec) != nil {
			t.Error("an incumbent entry donated")
		}
		fb, err := srv.solve(ctx, next(), true) // ctx is cancelled: fallback rung
		if err != nil {
			t.Fatal(err)
		}
		if fb.tier != serial.QualityFallback {
			t.Fatalf("tier %q, want fallback", fb.tier)
		}
		fb.key = "fallback"
		srv.cache.add(fb.key, fb)
		if donorOf(srv, spec) != nil {
			t.Error("a fallback entry donated")
		}
	})

	// The in-memory donor comes first, even for a spec whose incumbent
	// is cached, then the stored checkpoint, which comes before seed
	// columns.
	t.Run("donor-then-checkpoint", func(t *testing.T) {
		// An incumbent, from a run cancelled in its first round on a
		// server with no donor.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cut := New(context.Background(), Config{DisableUpgrade: true, CG: core.CGOptions{
			Xi: -1e-9, RelGap: -1,
			OnIteration: func(iter int, _ core.CGIteration) {
				if iter == 0 {
					cancel()
				}
			},
		}})
		degraded := next()
		inc, err := cut.solve(ctx, degraded, true)
		if err != nil || inc.tier != serial.QualityIncumbent {
			t.Fatalf("incumbent: err %v", err)
		}

		// A seeded solve gives the geometry its donor and its pool
		// checkpoint. Garbage then replaces the checkpoint: a solve that
		// read it would quarantine it and count a load error.
		st := testStore(t)
		srv := New(context.Background(), Config{Store: st, DisableUpgrade: true})
		solveVia(t, srv, next())
		if donorOf(srv, degraded) == nil {
			t.Fatal("no donor")
		}
		path := filepath.Join(st.Dir(), store.GeometryName(degraded)+store.CheckpointExt)
		pool, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		inc.key = degraded.Digest()
		srv.cache.add(inc.key, inc)
		for i, spec := range []*serial.SolveSpec{degraded, next()} {
			e, err := srv.solve(context.Background(), spec, true)
			if err != nil {
				t.Fatal(err)
			}
			if e.tier != serial.QualityOptimal || e.pool != nil {
				t.Errorf("resumed solve: tier %q, donates %v; want optimal, no donation", e.tier, e.pool != nil)
			}
			if got := srv.Stats().DonorSolves; got != uint64(i+1) {
				t.Errorf("after solve %d: donor_solves = %d, want %d: the donor comes first", i, got, i+1)
			}
		}
		if got := srv.Stats().StoreLoadErrors; got != 0 {
			t.Errorf("store_load_errors = %d: a solve with a warmer pool read the checkpoint", got)
		}

		// With no donor in memory, the stored pool comes next, and the
		// solve that resumed from it donates.
		if err := os.WriteFile(path, pool, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := New(context.Background(), Config{Store: st, DisableUpgrade: true})
		e, err := fresh.solve(context.Background(), next(), true)
		if err != nil {
			t.Fatal(err)
		}
		if snap := fresh.Stats(); snap.DonorSolves != 1 || snap.StoreLoadErrors != 0 || e.pool == nil {
			t.Errorf("stored-pool solve: donor_solves %d, load errors %d, donates %v; want 1, 0, true",
				snap.DonorSolves, snap.StoreLoadErrors, e.pool != nil)
		}
	})

	t.Run("no-crossing", func(t *testing.T) {
		srv := New(context.Background(), Config{DisableUpgrade: true})
		specs := []*serial.SolveSpec{next(), at(next(), 5, 0), at(next(), 4, 0.4)}
		for _, spec := range specs {
			solveVia(t, srv, spec)
		}
		if got := srv.Stats().DonorSolves; got != 0 {
			t.Errorf("donor_solves = %d, want 0 across ε and r", got)
		}
		for i, spec := range specs {
			if donorOf(srv, spec) == nil {
				t.Errorf("spec %d (ε %v r %v) left no donor of its own", i, spec.Epsilon, spec.Radius)
			}
		}
	})

	t.Run("eviction-drops-donor", func(t *testing.T) {
		const cacheSize = 2
		srv := New(context.Background(), Config{CacheSize: cacheSize, DisableUpgrade: true})
		spec := next()
		solveVia(t, srv, spec)
		for i := 0; i < cacheSize; i++ {
			e := stubEntry(t)
			e.key = string(rune('a' + i))
			srv.cache.add(e.key, e)
		}
		if donorOf(srv, spec) != nil {
			t.Fatal("donor outlived its geometry's last cached entry")
		}
		solveVia(t, srv, next())
		if got := srv.Stats().DonorSolves; got != 0 {
			t.Errorf("donor_solves = %d, want 0 after eviction", got)
		}
		if donorOf(srv, spec) == nil {
			t.Error("the next seeded solve did not donate")
		}
	})

	t.Run("exact-reaches-zero", func(t *testing.T) {
		var mu sync.Mutex
		var last core.CGIteration
		srv := New(context.Background(), Config{DisableUpgrade: true, CG: core.CGOptions{
			Xi: -0.05, RelGap: 0.02,
			OnIteration: func(_ int, it core.CGIteration) {
				mu.Lock()
				last = it
				mu.Unlock()
			},
		}})
		// A small network, since exact solves run to full convergence;
		// the exact flag alone gives a new digest on the same geometry.
		spec := testSpecs(t, 1)[0]
		solveVia(t, srv, spec)
		exact := *spec
		exact.Exact = true
		e := solveVia(t, srv, &exact)
		if got := srv.Stats().DonorSolves; got != 1 {
			t.Fatalf("donor_solves = %d, want 1", got)
		}
		mu.Lock()
		minZeta := last.MinZeta
		mu.Unlock()
		if minZeta < -1e-9 {
			t.Errorf("exact donor solve stopped at min ζ %g, want ≥ 0 within 1e-9", minZeta)
		}
		pr, err := exact.Problem()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.SolveCG(pr, core.CGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(e.etdd - cold.ETDD); d > 1e-6*cold.ETDD {
			t.Errorf("exact donor ETDD %v, cold exact %v", e.etdd, cold.ETDD)
		}
		assertServable(t, e)
	})
}
