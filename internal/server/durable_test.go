package server

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/roadnet"
	"repro/internal/serial"
	"repro/internal/store"
)

func testStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreWarmRestartPreservesServedMechanism is the recovery property
// test: a restart served from the durable store must hand out the same
// mechanism — identical Z, identical ETDD, same quality tier, full
// Geo-I feasibility — without running a single solve.
func TestStoreWarmRestartPreservesServedMechanism(t *testing.T) {
	st := testStore(t)
	spec := ladderSpec(t)
	key := spec.Digest()

	srvA := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	e1, cached, err := srvA.mechanismFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first request reported a cache hit")
	}
	if snap := srvA.Stats(); snap.StoreWrites != 1 || snap.Solves != 1 {
		t.Fatalf("first life: store_writes=%d solves=%d, want 1/1", snap.StoreWrites, snap.Solves)
	}
	if err := srvA.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Second life: fresh server over the same directory. The mechanism
	// must come off disk, not out of the solver.
	srvB := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	e2, _, err := srvB.mechanismFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	snap := srvB.Stats()
	if snap.Solves != 0 {
		t.Fatalf("warm restart ran %d solves, want 0", snap.Solves)
	}
	if snap.StoreLoads != 1 {
		t.Fatalf("store_loads = %d, want 1", snap.StoreLoads)
	}
	if e2.tier != e1.tier {
		t.Fatalf("tier changed across restart: %q → %q", e1.tier, e2.tier)
	}
	if e2.etdd != e1.etdd {
		t.Fatalf("served ETDD changed across restart: %v → %v", e1.etdd, e2.etdd)
	}
	if len(e2.mech.Z) != len(e1.mech.Z) {
		t.Fatalf("mechanism reshaped across restart")
	}
	for i := range e1.mech.Z {
		if e2.mech.Z[i] != e1.mech.Z[i] {
			t.Fatalf("Z[%d] changed across restart: %v → %v", i, e1.mech.Z[i], e2.mech.Z[i])
		}
	}
	assertServable(t, e2)
	if e3, cached, err := srvB.mechanismFor(context.Background(), spec); err != nil || !cached || e3 != e2 {
		t.Fatalf("second request not served from repopulated cache (cached=%v err=%v)", cached, err)
	}
	if _, err := st.LoadEntry(key); err != nil {
		t.Fatalf("snapshot gone after warm restart: %v", err)
	}
}

// TestStoreReadThroughDefersReduction: rebuilding an entry from the
// store checks the snapshot against the full Geo-I constraint set
// without running Algorithm 1 or the metric; a snapshot that needs
// repair builds the metric only, and is served repaired and feasible.
func TestStoreReadThroughDefersReduction(t *testing.T) {
	st := testStore(t)
	spec := ladderSpec(t)
	key := spec.Digest()
	srvA := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	if _, _, err := srvA.mechanismFor(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if err := srvA.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	srvB := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	e := srvB.entryFromStore(key, spec)
	if e == nil {
		t.Fatal("stored entry not loadable")
	}
	assertServable(t, e)
	if red, sym := e.prob.Built(); red || sym {
		t.Fatalf("read-through built red=%v sym=%v, want neither", red, sym)
	}

	// Tamper with the snapshot: row 0 leans on its own interval beyond
	// what ε allows, still row-stochastic, so only EnforceGeoI catches it.
	se, err := st.LoadEntry(key)
	if err != nil {
		t.Fatal(err)
	}
	k := se.K
	se.Z[0] += 0.2
	for j := 0; j < k; j++ {
		se.Z[j] /= 1.2
	}
	if err := st.WriteEntry(se); err != nil {
		t.Fatal(err)
	}
	srvC := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	e = srvC.entryFromStore(key, spec)
	if e == nil {
		t.Fatal("repairable snapshot not loaded")
	}
	assertServable(t, e)
	if red, sym := e.prob.Built(); red || !sym {
		t.Fatalf("repairing read-through built red=%v sym=%v, want sym only", red, sym)
	}
}

// TestStoreServesEvictedEntry closes the eviction/persistence gap: an
// entry pushed out of the LRU is reloaded from disk on its next
// request instead of being re-solved.
func TestStoreServesEvictedEntry(t *testing.T) {
	st := testStore(t)
	srv := New(context.Background(), Config{CacheSize: 1, Store: st, DisableUpgrade: true})
	ctr := &solveCounter{counts: map[string]int{}, tb: t}
	ctr.install(srv)
	specs := testSpecs(t, 2)

	if _, _, err := srv.mechanismFor(context.Background(), specs[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.mechanismFor(context.Background(), specs[1]); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Stats(); snap.CacheEvicted != 1 {
		t.Fatalf("cache_evicted = %d, want 1 with CacheSize 1", snap.CacheEvicted)
	}

	e, _, err := srv.mechanismFor(context.Background(), specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := ctr.count(specs[0].Digest()); got != 1 {
		t.Fatalf("evicted spec re-solved: %d solves, want 1", got)
	}
	if snap := srv.Stats(); snap.StoreLoads != 1 {
		t.Fatalf("store_loads = %d, want 1", snap.StoreLoads)
	}
	assertServable(t, e)
}

// interruptedSolve runs a real seeded solve on a server with a store
// and cancels it in the round that writes its first pool checkpoint,
// returning the degraded entry, which carries the run's final pool.
// spec must run past core.CheckpointRounds rounds under a zero gap;
// cadenceSpec does.
func interruptedSolve(t *testing.T, st *store.Store, spec *serial.SolveSpec) (*Server, *entry) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := New(context.Background(), Config{
		Store:          st,
		DisableUpgrade: true,
		CG: core.CGOptions{
			Xi: -1e-9, RelGap: -1, // force many rounds so the cancel lands mid-run
			OnIteration: func(iter int, _ core.CGIteration) {
				if iter == core.CheckpointRounds-1 {
					cancel()
				}
			},
		},
	})
	e, err := srv.solve(ctx, spec, true)
	if err != nil {
		t.Fatalf("cancelled solve must degrade, got error %v", err)
	}
	if e.tier != serial.QualityIncumbent || e.pool == nil {
		t.Fatalf("tier %q pool %v, want incumbent with its final pool", e.tier, e.pool != nil)
	}
	return srv, e
}

// cadenceSpec is a K=45 spec whose zero-gap solve runs 35 CG rounds,
// several checkpoint cadences.
func cadenceSpec(t *testing.T) *serial.SolveSpec {
	t.Helper()
	return churnSpecs(t, 1)[0]
}

// zeroGap is interruptedSolve's stop rule without its cancellation: no
// ξ or gap stop, so a solve runs to convergence.
var zeroGap = core.CGOptions{Xi: -1e-9, RelGap: -1}

// seededRounds is the round count of a zero-gap solve of spec from seed
// columns.
func seededRounds(t *testing.T, spec *serial.SolveSpec) int {
	t.Helper()
	srv := New(context.Background(), Config{DisableUpgrade: true, CG: zeroGap})
	e, err := srv.solve(context.Background(), spec, true)
	if err != nil || e.tier != serial.QualityOptimal || e.pool == nil {
		t.Fatalf("seeded solve: err %v", err)
	}
	return e.rounds
}

// admitInterrupted admits interruptedSolve's degraded entry, as the
// miss path does, and checks that the entry's final pool is now its
// geometry's pool record, while the geometry has no donor. The solve
// stopped in the round of its cadence checkpoint, which already wrote
// that pool, so admit writes no second one.
func admitInterrupted(t *testing.T, st *store.Store, spec *serial.SolveSpec) *Server {
	t.Helper()
	srv, e := interruptedSolve(t, st, spec)
	columns := e.pool.Columns()
	e.key = spec.Digest()
	srv.admit(spec, e)
	if donorOf(srv, spec) != nil {
		t.Fatal("a degraded entry donated")
	}
	ck, err := st.LoadCheckpoint(store.GeometryName(spec))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Spec.Digest() != spec.Digest() || len(ck.State.Columns) != columns {
		t.Fatalf("pool record has %d columns, the interrupted run's final pool %d", len(ck.State.Columns), columns)
	}
	if snap := srv.Stats(); snap.StoreWrites != 1 || snap.CheckpointWrites != 1 {
		t.Fatalf("store_writes=%d checkpoint_writes=%d, want 1/1: the entry and the cadence checkpoint, which holds the final pool",
			snap.StoreWrites, snap.CheckpointWrites)
	}
	return srv
}

// TestCheckpointedFinalPoolNotRewritten: a seeded solve that ends
// optimal on a round that is a multiple of core.CheckpointRounds ends on
// the pool its last cadence checkpoint wrote, so admit does not commit
// it again; the geometry adopts that pool as donor.
func TestCheckpointedFinalPoolNotRewritten(t *testing.T) {
	st := testStore(t)
	spec := cadenceSpec(t)
	srv := New(context.Background(), Config{
		Store:          st,
		DisableUpgrade: true,
		CG:             core.CGOptions{Xi: -1e-9, RelGap: -1, MaxIterations: 2 * core.CheckpointRounds},
	})
	e := solveVia(t, srv, spec)
	if e.tier != serial.QualityOptimal || e.rounds != 2*core.CheckpointRounds {
		t.Fatalf("tier %q after %d rounds, want optimal after %d", e.tier, e.rounds, 2*core.CheckpointRounds)
	}
	if snap := srv.Stats(); snap.StoreWrites != 1 || snap.CheckpointWrites != 2 {
		t.Fatalf("store_writes=%d checkpoint_writes=%d, want 1/2: the entry and two cadence checkpoints, the second holding the final pool",
			snap.StoreWrites, snap.CheckpointWrites)
	}
	donor := donorOf(srv, spec)
	ck, err := st.LoadCheckpoint(store.GeometryName(spec))
	if err != nil {
		t.Fatal(err)
	}
	if donor == nil || donor.Columns() != len(ck.State.Columns) {
		t.Fatalf("adopted donor does not hold the pool record's %d columns", len(ck.State.Columns))
	}
}

// TestUpgradeResumesFromStoredPool: a degraded entry carries no pool of
// its own. The upgrade re-solve (what scheduleUpgrade runs) resumes from
// the pool record its interrupted solve left, like any miss with no
// donor in memory: one donor solve, ending optimal in fewer rounds than
// a seeded solve, whose pool the geometry then adopts.
func TestUpgradeResumesFromStoredPool(t *testing.T) {
	st := testStore(t)
	spec := cadenceSpec(t)
	seeded := seededRounds(t, spec)
	srv := admitInterrupted(t, st, spec)

	e, err := srv.solve(context.Background(), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if e.tier != serial.QualityOptimal {
		t.Fatalf("upgrade tier %q, want optimal", e.tier)
	}
	if got := srv.Stats().DonorSolves; got != 1 {
		t.Fatalf("donor_solves = %d, want 1", got)
	}
	t.Logf("upgrade: %d rounds, seeded: %d", e.rounds, seeded)
	if e.rounds >= seeded {
		t.Errorf("upgrade took %d rounds, a seeded solve %d", e.rounds, seeded)
	}
	assertServable(t, e)
	e.key = spec.Digest()
	srv.admit(spec, e)
	if donorOf(srv, spec) == nil {
		t.Fatal("the upgrade's pool was not adopted as donor")
	}
}

// TestStoreDegradedPoolSurvivesRestart: a restarted server solves
// nothing at startup, serves the stored degraded entry at once, and its
// background upgrade resumes from the pool record the interrupted solve
// left: one donor solve, ending optimal in fewer rounds than a seeded
// solve.
func TestStoreDegradedPoolSurvivesRestart(t *testing.T) {
	st := testStore(t)
	spec := cadenceSpec(t)
	key := spec.Digest()
	seeded := seededRounds(t, spec)
	admitInterrupted(t, st, spec)

	srv := New(context.Background(), Config{Store: st, CG: zeroGap})
	if snap := srv.Stats(); snap.Solves != 0 || snap.DonorSolves != 0 {
		t.Fatalf("startup solved: solves=%d donor_solves=%d, want 0/0", snap.Solves, snap.DonorSolves)
	}
	if e := solveVia(t, srv, spec); e.tier != serial.QualityIncumbent {
		t.Fatalf("restart served tier %q, want the stored incumbent", e.tier)
	}
	waitFor(t, time.Minute, func() bool {
		cur, ok := srv.cache.get(key)
		return ok && cur.tier == serial.QualityOptimal
	})
	// The upgrade caches its entry before it counts it: join it first.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := srv.Stats()
	if snap.StoreLoads != 1 || snap.Solves != 0 || snap.Upgrades != 1 || snap.DonorSolves != 1 || snap.StoreLoadErrors != 0 {
		t.Fatalf("store_loads=%d solves=%d upgrades=%d donor_solves=%d store_load_errors=%d, want 1/0/1/1/0",
			snap.StoreLoads, snap.Solves, snap.Upgrades, snap.DonorSolves, snap.StoreLoadErrors)
	}
	cur, _ := srv.cache.get(key)
	t.Logf("upgrade: %d rounds, seeded: %d", cur.rounds, seeded)
	if cur.rounds >= seeded {
		t.Errorf("upgrade took %d rounds, a seeded solve %d", cur.rounds, seeded)
	}
	assertServable(t, cur)
}

// TestStoreLegacyEntryPoolDropped: testdata/legacy.mech is an incumbent
// entry as written when degraded entries carried their run's pool. It
// still loads: the startup scan quarantines nothing, and the entry
// passes the Geo-I gate and serves at the incumbent tier with no solve.
// Its pool is checked and dropped.
func TestStoreLegacyEntryPoolDropped(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy.mech"))
	if err != nil {
		t.Fatal(err)
	}
	st := testStore(t)
	spec := ladderSpec(t)
	if err := os.WriteFile(filepath.Join(st.Dir(), spec.Digest()+".mech"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	if got := srv.Stats().CorruptQuarantined; got != 0 {
		t.Fatalf("corrupt_quarantined = %d, want 0", got)
	}
	e := solveVia(t, srv, spec)
	if e.tier != serial.QualityIncumbent {
		t.Fatalf("tier %q, want incumbent", e.tier)
	}
	snap := srv.Stats()
	if snap.StoreLoads != 1 || snap.Solves != 0 || snap.StoreLoadErrors != 0 || snap.CorruptQuarantined != 0 {
		t.Fatalf("store_loads=%d solves=%d store_load_errors=%d corrupt_quarantined=%d, want 1/0/0/0",
			snap.StoreLoads, snap.Solves, snap.StoreLoadErrors, snap.CorruptQuarantined)
	}
	assertServable(t, e)
}

// TestStoreRecoveryReenqueuesInterruptedSolve: a pool checkpoint with
// no completed entry is an interrupted solve. A restarting server starts
// nothing for it; the interrupted solve is re-run by the first request,
// which misses, resumes from the stored pool and donates its final pool
// to the geometry. At the server's stop rule that solve adds no column,
// so the record on disk already is the donor's pool and is not
// rewritten.
func TestStoreRecoveryReenqueuesInterruptedSolve(t *testing.T) {
	st := testStore(t)
	spec := cadenceSpec(t)
	key := spec.Digest()
	interruptedSolve(t, st, spec) // leaves a pool checkpoint, no entry persisted

	srv := New(context.Background(), Config{Store: st})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Stats(); snap.Solves != 0 || snap.Upgrades != 0 {
		t.Fatalf("startup solved: solves=%d upgrades=%d, want 0/0", snap.Solves, snap.Upgrades)
	}

	srv = New(context.Background(), Config{Store: st})
	e := solveVia(t, srv, spec)
	if e.tier != serial.QualityOptimal {
		t.Fatalf("recovered solve tier %q, want optimal", e.tier)
	}
	snap := srv.Stats()
	if snap.Solves != 1 || snap.DonorSolves != 1 || snap.StoreWrites != 1 || snap.CheckpointWrites != 0 {
		t.Fatalf("solves=%d donor_solves=%d store_writes=%d checkpoint_writes=%d, want 1/1/1/0",
			snap.Solves, snap.DonorSolves, snap.StoreWrites, snap.CheckpointWrites)
	}
	if se, err := st.LoadEntry(key); err != nil || se.Tier != serial.QualityOptimal {
		t.Fatalf("recovered solve not persisted optimal: %+v, %v", se, err)
	}
	ck, err := st.LoadCheckpoint(store.GeometryName(spec))
	if err != nil {
		t.Fatal(err)
	}
	if donor := donorOf(srv, spec); donor == nil || len(ck.State.Columns) != donor.Columns() {
		t.Fatalf("stored pool has %d columns, the adopted donor %d", len(ck.State.Columns), donor.Columns())
	}
	if _, cached, err := srv.mechanismFor(context.Background(), spec); err != nil || !cached {
		t.Fatalf("repeat request: cached=%v err=%v, want a cache hit", cached, err)
	}
}

// TestStoredCheckpointBurstSolvesOnce: a burst of requests for an
// interrupted spec after a restart is one ordinary miss — a single
// flight, holding a solve-pool slot, resuming from the stored pool —
// with the rest of the burst coalesced onto it.
func TestStoredCheckpointBurstSolvesOnce(t *testing.T) {
	const burst = 8
	st := testStore(t)
	spec := cadenceSpec(t)
	interruptedSolve(t, st, spec)

	srv := New(context.Background(), Config{Store: st, MaxSolves: 2})
	var calls, outsidePool atomic.Int64
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec, owner bool) (*entry, error) {
		calls.Add(1)
		if len(srv.slots) != 1 {
			outsidePool.Add(1)
		}
		// Hold the flight until the whole burst waits on it.
		for srv.stats.solveQueueDepth.Load() < burst {
			time.Sleep(time.Millisecond)
		}
		return srv.solve(ctx, spec, owner)
	}
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e, _, err := srv.mechanismFor(context.Background(), spec); err != nil || e.tier != serial.QualityOptimal {
				t.Errorf("burst request: err %v", err)
			}
		}()
	}
	wg.Wait()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 || outsidePool.Load() != 0 {
		t.Fatalf("%d solves, %d outside the solve pool; want 1 inside it", n, outsidePool.Load())
	}
	snap := srv.Stats()
	if snap.Solves != 1 || snap.DonorSolves != 1 || snap.CoalescedRequests != burst-1 || snap.Upgrades != 0 {
		t.Fatalf("solves=%d donor_solves=%d coalesced=%d upgrades=%d, want 1/1/%d/0",
			snap.Solves, snap.DonorSolves, snap.CoalescedRequests, snap.Upgrades, burst-1)
	}
}

// TestOneSolvePerNetwork: two first misses on one road network arrive
// together. One owns the network and solves from seeds; the other waits
// for it, outside the solve pool, and resumes from the donor it leaves.
// Only the owner writes the network's pool record, which holds the
// donor's columns.
func TestOneSolvePerNetwork(t *testing.T) {
	st := testStore(t)
	srv := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	specs := churnSpecs(t, 2)
	// Hold the first solve until both misses wait on a flight.
	var both atomic.Bool
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec, owner bool) (*entry, error) {
		for !both.Load() && srv.stats.solveQueueDepth.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		both.Store(true)
		return srv.solve(ctx, spec, owner)
	}
	var wg sync.WaitGroup
	for _, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e, _, err := srv.mechanismFor(context.Background(), spec); err != nil || e.tier != serial.QualityOptimal {
				t.Errorf("first miss: err %v", err)
			}
		}()
	}
	wg.Wait()
	snap := srv.Stats()
	if snap.Solves != 2 || snap.DonorSolves != 1 || snap.CheckpointWrites != 1 {
		t.Fatalf("solves=%d donor_solves=%d checkpoint_writes=%d, want 2/1/1: one seeded solve, one resumed from its donor",
			snap.Solves, snap.DonorSolves, snap.CheckpointWrites)
	}
	donor := donorOf(srv, specs[0])
	ck, err := st.LoadCheckpoint(store.GeometryName(specs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if donor == nil || len(ck.State.Columns) != donor.Columns() {
		t.Fatalf("stored pool has %d columns, want the donor's", len(ck.State.Columns))
	}
	if _, owned := srv.owned.Load(geomKey(specs[0].GeometryKey())); owned {
		t.Fatal("the network still has an owner after both misses")
	}
}

// TestOwnerWaitEndsWithSolveDeadline: a miss whose solve deadline ends
// while it waits for its network's owner serves the fallback rung and
// writes no pool. It leaves the lock to the owner: once the owner has
// finished, the miss's background upgrade takes the lock and resumes
// from the owner's donor, and Shutdown returns.
func TestOwnerWaitEndsWithSolveDeadline(t *testing.T) {
	st := testStore(t)
	srv := New(context.Background(), Config{Store: st, SolveDeadline: 50 * time.Millisecond})
	specs := churnSpecs(t, 2)
	gk := geomKey(specs[0].GeometryKey())
	entered, release := make(chan struct{}), make(chan struct{})
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec, owner bool) (*entry, error) {
		if spec != specs[0] {
			return srv.solve(ctx, spec, owner)
		}
		// The paced owner outlives the deadline, and solves to the end.
		close(entered)
		<-release
		return srv.solve(context.Background(), spec, owner)
	}
	var once sync.Once
	unpace := func() { once.Do(func() { close(release) }) }
	defer unpace()
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := srv.mechanismFor(context.Background(), specs[0])
		ownerDone <- err
	}()
	<-entered

	e, _, err := srv.mechanismFor(context.Background(), specs[1])
	if err != nil {
		t.Fatal(err)
	}
	if e.tier != serial.QualityFallback {
		t.Fatalf("waiting miss served tier %q, want fallback", e.tier)
	}
	assertServable(t, e)
	snap := srv.Stats()
	if snap.CheckpointWrites != 0 || snap.DonorSolves != 0 {
		t.Fatalf("checkpoint_writes=%d donor_solves=%d while the owner solves, want 0/0",
			snap.CheckpointWrites, snap.DonorSolves)
	}
	if _, err := st.LoadCheckpoint(store.GeometryName(specs[1])); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("pool record written while the owner solves: %v", err)
	}

	unpace()
	if err := <-ownerDone; err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Minute, func() bool {
		cur, ok := srv.cache.get(specs[1].Digest())
		return ok && cur.tier == serial.QualityOptimal
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	snap = srv.Stats()
	if snap.Upgrades != 1 || snap.DonorSolves != 1 || snap.CheckpointWrites != 1 {
		t.Fatalf("upgrades=%d donor_solves=%d checkpoint_writes=%d, want 1/1/1: the upgrade resumed from the owner's donor",
			snap.Upgrades, snap.DonorSolves, snap.CheckpointWrites)
	}
	if _, owned := srv.owned.Load(gk); owned {
		t.Fatal("the network still has an owner")
	}
}

// coldSpecs returns two specs on solve-cold's K=48 network (the
// bench_test.go 3×3 grid at δ 0.15, ε 5): the second's prior jitters
// the first's by ±0.1%.
func coldSpecs(t *testing.T) (first, jittered *serial.SolveSpec) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	net := serial.FromGraph(roadnet.Grid(rng, roadnet.GridConfig{
		Rows: 3, Cols: 3, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	}))
	normalised := func(p []float64) []float64 {
		sum := 0.0
		for _, v := range p {
			sum += v
		}
		for i := range p {
			p[i] /= sum
		}
		return p
	}
	base := make([]float64, 48)
	for i := range base {
		base[i] = 0.2 + rng.Float64()
	}
	base = normalised(base)
	prior := make([]float64, len(base))
	for i, b := range base {
		prior[i] = b * (1 + 0.001*(2*rng.Float64()-1))
	}
	prior = normalised(prior)
	return &serial.SolveSpec{Network: net, Delta: 0.15, Epsilon: 5, Prior: base},
		&serial.SolveSpec{Network: net, Delta: 0.15, Epsilon: 5, Prior: prior}
}

// TestStoredPoolUnchangedNotRewritten: a fresh server's first miss on a
// network whose pool record is on disk resumes from that record. When
// the solve adds no column, its adopted donor is the record's pool, so
// nothing is rewritten: checkpoint_writes stays 0 and the record keeps
// its bytes.
func TestStoredPoolUnchangedNotRewritten(t *testing.T) {
	st := testStore(t)
	first, jittered := coldSpecs(t)
	solveVia(t, New(context.Background(), Config{Store: st}), first)
	path := filepath.Join(st.Dir(), store.GeometryName(first)+store.CheckpointExt)
	record, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var columns atomic.Int64
	srv := New(context.Background(), Config{Store: st, CG: core.CGOptions{
		OnIteration: func(_ int, it core.CGIteration) { columns.Add(int64(it.ColumnsAdded)) },
	}})
	if e := solveVia(t, srv, jittered); e.tier != serial.QualityOptimal {
		t.Fatalf("tier %q, want optimal", e.tier)
	}
	if n := columns.Load(); n != 0 {
		t.Fatalf("the resumed solve added %d columns; this check needs one that adds none", n)
	}
	snap := srv.Stats()
	if snap.Solves != 1 || snap.DonorSolves != 1 || snap.StoreWrites != 1 || snap.CheckpointWrites != 0 {
		t.Fatalf("solves=%d donor_solves=%d store_writes=%d checkpoint_writes=%d, want 1/1/1/0",
			snap.Solves, snap.DonorSolves, snap.StoreWrites, snap.CheckpointWrites)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(record) {
		t.Fatalf("pool record rewritten (%d bytes, was %d; err %v)", len(got), len(record), err)
	}
	ck, err := st.LoadCheckpoint(store.GeometryName(first))
	if err != nil {
		t.Fatal(err)
	}
	if donor := donorOf(srv, first); donor == nil || donor.Columns() != len(ck.State.Columns) {
		t.Fatalf("adopted donor does not hold the stored pool's %d columns", len(ck.State.Columns))
	}

	// The record has one writer, its network's owner, so a pool write
	// on another network between the record's read and the adoption
	// leaves it the stored pool: the adopted pool is not rewritten.
	srv = New(context.Background(), Config{Store: st, DisableUpgrade: true})
	e, err := srv.solve(context.Background(), jittered, true)
	if err != nil || e.pool == nil || !e.stored {
		t.Fatalf("resumed solve: donates %v, unchanged stored pool %v, err %v", e != nil && e.pool != nil, e != nil && e.stored, err)
	}
	other := testSpecs(t, 1)[0]
	srv.writeCheckpoint(other, 1, mustState(t, other))
	e.key = jittered.Digest()
	srv.admit(jittered, e)
	if got := srv.Stats().CheckpointWrites; got != 1 {
		t.Fatalf("checkpoint_writes = %d, want 1: the other network's pool only", got)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(record) {
		t.Fatalf("pool record rewritten (%d bytes, was %d; err %v)", len(got), len(record), err)
	}
}

// TestStoreStaleCheckpointDropped: a pool checkpoint filed under
// another geometry's key is stale for that key and never resumed from. The solve that finds it
// quarantines it, counts it, runs from seed columns, and files its own
// pool under the key.
func TestStoreStaleCheckpointDropped(t *testing.T) {
	st := testStore(t)
	specs := testSpecs(t, 2)
	ck := &serial.StoredCheckpoint{Spec: *specs[0], Rounds: 1, State: *mustState(t, specs[0]).Snapshot()}
	if err := st.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(
		filepath.Join(st.Dir(), store.GeometryName(specs[0])+store.CheckpointExt),
		filepath.Join(st.Dir(), store.GeometryName(specs[1])+store.CheckpointExt),
	); err != nil {
		t.Fatal(err)
	}

	srv := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	e := solveVia(t, srv, specs[1])
	assertServable(t, e)
	snap := srv.Stats()
	if snap.CorruptQuarantined != 1 || snap.StoreLoadErrors != 1 || snap.DonorSolves != 0 {
		t.Fatalf("corrupt_quarantined=%d store_load_errors=%d donor_solves=%d, want 1/1/0",
			snap.CorruptQuarantined, snap.StoreLoadErrors, snap.DonorSolves)
	}
	got, err := st.LoadCheckpoint(store.GeometryName(specs[1]))
	if err != nil || got.Spec.Digest() != specs[1].Digest() {
		t.Fatalf("the seeded solve did not file its own pool: %v", err)
	}
}

// TestStoreLegacyCheckpointIgnored: a store written before pool
// checkpoints were keyed by geometry holds <digest>.ckpt files. Startup
// quarantines and counts one instead of resuming or failing, and the
// store's entries still serve.
func TestStoreLegacyCheckpointIgnored(t *testing.T) {
	st := testStore(t)
	spec := ladderSpec(t)
	srvA := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	first := solveVia(t, srvA, spec)
	data, err := os.ReadFile(filepath.Join("testdata", "legacy.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	old, err := serial.DecodeStoredCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	name := old.Spec.Digest() + ".ckpt"
	if err := os.WriteFile(filepath.Join(st.Dir(), name), data, 0o644); err != nil {
		t.Fatal(err)
	}

	srvB := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	if snap := srvB.Stats(); snap.CorruptQuarantined != 1 {
		t.Fatalf("corrupt_quarantined = %d, want 1 for the per-digest checkpoint", snap.CorruptQuarantined)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), name)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("per-digest checkpoint still in the store: %v", err)
	}
	e := solveVia(t, srvB, spec)
	if e.etdd != first.etdd {
		t.Fatalf("entry served ETDD %v, first life %v", e.etdd, first.etdd)
	}
	e2 := solveVia(t, srvB, &old.Spec)
	assertServable(t, e2)
	if snap := srvB.Stats(); snap.StoreLoads != 1 || snap.Solves != 1 || snap.DonorSolves != 0 {
		t.Fatalf("store_loads=%d solves=%d donor_solves=%d, want 1/1/0: the per-digest checkpoint was resumed",
			snap.StoreLoads, snap.Solves, snap.DonorSolves)
	}
}

// mustState runs a quick interrupted solve and returns its column pool.
func mustState(t *testing.T, spec *serial.SolveSpec) *core.CGState {
	t.Helper()
	pr, err := spec.Problem()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveCG(pr, core.CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.State
}

// TestStoreCorruptSnapshotDegradesToResolve: corruption discovered on
// the load path costs exactly one cold solve — counted, quarantined,
// and healed by the re-solve's persist. Never an error to the client,
// never a served mechanism.
func TestStoreCorruptSnapshotDegradesToResolve(t *testing.T) {
	st := testStore(t)
	srv := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	ctr := &solveCounter{counts: map[string]int{}, tb: t}
	ctr.install(srv)
	spec := testSpecs(t, 1)[0]
	key := spec.Digest()

	// Plant the corruption after New so the startup scan cannot clean it.
	if err := os.WriteFile(filepath.Join(st.Dir(), key+".mech"), []byte("torn to shreds"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, _, err := srv.mechanismFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	assertServable(t, e)
	if got := ctr.count(key); got != 1 {
		t.Fatalf("corrupt snapshot triggered %d solves, want 1", got)
	}
	snap := srv.Stats()
	if snap.StoreLoadErrors != 1 || snap.CorruptQuarantined != 1 {
		t.Fatalf("store_load_errors=%d corrupt_quarantined=%d, want 1/1",
			snap.StoreLoadErrors, snap.CorruptQuarantined)
	}
	// The re-solve's persist healed the snapshot.
	if _, err := st.LoadEntry(key); err != nil {
		t.Fatalf("snapshot not healed by re-solve: %v", err)
	}
	// Startup-scan path: a corrupt file present before New is quarantined
	// during recovery and counted there.
	if err := os.WriteFile(filepath.Join(st.Dir(), testSpecs(t, 2)[1].Digest()+".mech"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv2 := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	if snap := srv2.Stats(); snap.CorruptQuarantined != 1 {
		t.Fatalf("startup scan corrupt_quarantined = %d, want 1", snap.CorruptQuarantined)
	}
}

// TestChaosStoreFaults arms the store's fault sites under live traffic:
// a failing disk costs durability (and is visible in the counters), but
// never availability and never a privacy-violating mechanism.
func TestChaosStoreFaults(t *testing.T) {
	defer faultinject.Reset()
	st := testStore(t)
	srv := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	ctr := &solveCounter{counts: map[string]int{}, tb: t}
	ctr.install(srv)
	specs := testSpecs(t, 2)

	// Entry persistence dies at every commit step; serving must not care.
	for _, site := range []string{store.FaultSiteWrite, store.FaultSiteShortWrite, store.FaultSiteFsync, store.FaultSiteRename} {
		faultinject.Set(site, faultinject.Fault{Err: errors.New("injected " + site), Times: 1})
		e, _, err := srv.mechanismFor(context.Background(), specs[0])
		if err != nil {
			t.Fatalf("%s armed: serving failed: %v", site, err)
		}
		assertServable(t, e)
		faultinject.Clear(site)
		// Evict by hand so the next request is a fresh miss.
		srv.cache = newMechCache(srv.cfg.CacheSize)
	}
	if snap := srv.Stats(); snap.StoreWrites != 0 {
		t.Fatalf("store_writes = %d with every commit faulted, want 0", snap.StoreWrites)
	}

	// Faults cleared: the next miss persists, and a transient read fault
	// neither loses the snapshot nor reaches the client.
	if _, _, err := srv.mechanismFor(context.Background(), specs[1]); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Stats(); snap.StoreWrites != 1 {
		t.Fatalf("store_writes = %d after faults cleared, want 1", snap.StoreWrites)
	}
	srv.cache = newMechCache(srv.cfg.CacheSize)
	faultinject.Set(store.FaultSiteRead, faultinject.Fault{Err: errors.New("disk hiccup"), Times: 1})
	e, _, err := srv.mechanismFor(context.Background(), specs[1])
	if err != nil {
		t.Fatalf("read fault reached the client: %v", err)
	}
	assertServable(t, e)
	snap := srv.Stats()
	if snap.StoreLoadErrors != 1 || snap.CorruptQuarantined != 0 {
		t.Fatalf("store_load_errors=%d corrupt_quarantined=%d after read fault, want 1/0",
			snap.StoreLoadErrors, snap.CorruptQuarantined)
	}
	srv.cache = newMechCache(srv.cfg.CacheSize)
	if _, _, err := srv.mechanismFor(context.Background(), specs[1]); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Stats(); snap.StoreLoads != 1 {
		t.Fatalf("snapshot lost after transient read fault: store_loads = %d, want 1", snap.StoreLoads)
	}
}

// TestChaosCheckpointServeRace runs a checkpointing solve while other
// goroutines hammer the stats endpoint and sample a cached mechanism;
// under -race this is the checkpoint-vs-serve data-race check. The
// solve stops one round past the checkpoint cadence, so it writes one
// cadence checkpoint and its final pool.
func TestChaosCheckpointServeRace(t *testing.T) {
	st := testStore(t)
	srv := New(context.Background(), Config{
		Store:          st,
		DisableUpgrade: true,
		// Keep generating columns for core.CheckpointRounds+1 rounds.
		CG: core.CGOptions{Xi: -1e-9, RelGap: -1, MaxIterations: core.CheckpointRounds + 1},
	})
	hot := solveVia(t, srv, ladderSpec(t))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				srv.Stats()
				hot.sample(hot.prob.Part.WithRelativeLoc(0, 0.5))
			}
		}()
	}
	before := srv.Stats().CheckpointWrites
	e := solveVia(t, srv, cadenceSpec(t))
	close(stop)
	wg.Wait()
	assertServable(t, e)
	if got := srv.Stats().CheckpointWrites - before; got != 2 {
		t.Fatalf("contested solve wrote %d checkpoints, want 2 (one cadence, one final)", got)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
