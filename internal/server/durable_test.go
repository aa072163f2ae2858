package server

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
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

// interruptedSolve runs a real solve that gets cancelled mid-run on a
// server with checkpointing every round, returning the degraded entry.
func interruptedSolve(t *testing.T, st *store.Store, spec *serial.SolveSpec) (*Server, *entry) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := New(context.Background(), Config{
		Store:            st,
		CheckpointRounds: 1,
		DisableUpgrade:   true,
		CG: core.CGOptions{
			Xi: -1e-9, RelGap: -1, // force many rounds so the cancel lands mid-run
			OnIteration: func(iter int, _ core.CGIteration) {
				if iter == 0 {
					cancel()
				}
			},
		},
	})
	e, err := srv.solve(ctx, spec)
	if err != nil {
		t.Fatalf("cancelled solve must degrade, got error %v", err)
	}
	if e.tier != serial.QualityIncumbent || e.state == nil {
		t.Fatalf("tier %q state %v, want incumbent with resume state", e.tier, e.state != nil)
	}
	return srv, e
}

// TestStoreDegradedEntryStateSurvives: a degraded entry's resumable
// column pool makes it to disk and back, and the interrupted run left
// durable mid-solve checkpoints behind.
func TestStoreDegradedEntryStateSurvives(t *testing.T) {
	st := testStore(t)
	spec := ladderSpec(t)
	key := spec.Digest()
	srvA, e := interruptedSolve(t, st, spec)
	if snap := srvA.Stats(); snap.CheckpointWrites == 0 {
		t.Fatal("no checkpoint written by an interrupted checkpointing solve")
	}
	if _, err := st.LoadCheckpoint(key); err != nil {
		t.Fatalf("checkpoint not on disk: %v", err)
	}
	srvA.persistEntry(key, spec, e)
	if _, err := st.LoadEntry(key); err != nil {
		t.Fatalf("degraded entry not persisted: %v", err)
	}

	// Restart (upgrades off): the entry must come back with its resume
	// state, and the checkpoint must be recognised as an interrupted
	// solve.
	srvB := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	if snap := srvB.Stats(); snap.RecoveredSolves != 1 {
		t.Fatalf("recovered_solves = %d, want 1", snap.RecoveredSolves)
	}
	e2 := srvB.entryFromStore(key, spec)
	if e2 == nil {
		t.Fatal("persisted degraded entry not loadable")
	}
	if e2.tier != serial.QualityIncumbent {
		t.Fatalf("tier %q, want incumbent", e2.tier)
	}
	if e2.state == nil {
		t.Fatal("resume state lost across the store round trip")
	}
	assertServable(t, e2)

	// The restored pool is genuinely resumable: finishing the solve from
	// it reaches the optimal tier.
	srvB.cache.add(key, e2)
	done, err := srvB.solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if done.tier != serial.QualityOptimal {
		t.Fatalf("resumed solve tier %q, want optimal", done.tier)
	}
	assertServable(t, done)
}

// TestStoreRecoveryReenqueuesInterruptedSolve: a checkpoint with no
// completed entry is an interrupted solve; a restarting server must
// finish it in the background and clean the checkpoint up.
func TestStoreRecoveryReenqueuesInterruptedSolve(t *testing.T) {
	st := testStore(t)
	spec := ladderSpec(t)
	key := spec.Digest()
	interruptedSolve(t, st, spec) // leaves a checkpoint, no entry persisted

	srv := New(context.Background(), Config{Store: st})
	if snap := srv.Stats(); snap.RecoveredSolves != 1 {
		t.Fatalf("recovered_solves = %d, want 1", snap.RecoveredSolves)
	}
	waitFor(t, 30*time.Second, func() bool {
		e, ok := srv.cache.get(key)
		return ok && e.tier == serial.QualityOptimal
	})
	// The upgrade caches its result before it counts and persists it:
	// join it (Shutdown drains background work) before asserting on
	// either.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Stats(); snap.Upgrades != 1 || snap.StoreWrites != 1 {
		t.Fatalf("upgrades=%d store_writes=%d, want 1/1", snap.Upgrades, snap.StoreWrites)
	}
	if _, err := st.LoadCheckpoint(key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("completed recovery left its checkpoint behind: %v", err)
	}
	if se, err := st.LoadEntry(key); err != nil || se.Tier != serial.QualityOptimal {
		t.Fatalf("recovered solve not persisted optimal: %+v, %v", se, err)
	}
}

// TestStoreStaleCheckpointDropped: a checkpoint whose digest already has
// an optimal entry on disk is leftover from a crash between the final
// persist and the checkpoint cleanup; recovery deletes it instead of
// re-solving.
func TestStoreStaleCheckpointDropped(t *testing.T) {
	st := testStore(t)
	spec := ladderSpec(t)
	key := spec.Digest()
	srvA, e := interruptedSolve(t, st, spec)
	e.tier = serial.QualityOptimal
	e.state = nil
	srvA.persistEntry(key, spec, e)
	// persistEntry of an optimal entry already deletes the checkpoint;
	// recreate one to model the crash-between-steps window.
	ck := &serial.StoredCheckpoint{Spec: *spec, Rounds: 1, State: *mustState(t, spec).Snapshot()}
	if err := st.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}

	srvB := New(context.Background(), Config{Store: st})
	if snap := srvB.Stats(); snap.RecoveredSolves != 0 {
		t.Fatalf("recovered_solves = %d, want 0 for a stale checkpoint", snap.RecoveredSolves)
	}
	if _, err := st.LoadCheckpoint(key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("stale checkpoint survived recovery: %v", err)
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
// goroutines hammer the cache, the stats endpoint and the sampler; under
// -race this is the checkpoint-vs-serve data-race check.
func TestChaosCheckpointServeRace(t *testing.T) {
	st := testStore(t)
	srv := New(context.Background(), Config{
		Store:            st,
		CheckpointRounds: 1,
		DisableUpgrade:   true,
		SolveDeadline:    600 * time.Millisecond,
		CG:               core.CGOptions{Xi: -1e-9, RelGap: -1}, // keep generating columns until the deadline
	})
	spec := ladderSpec(t)

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
				if e, ok := srv.cache.get(spec.Digest()); ok {
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					_, _ = e.sample(ctx, e.prob.Part.WithRelativeLoc(0, 0.5))
					cancel()
				}
			}
		}()
	}
	e, _, err := srv.mechanismFor(context.Background(), spec)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertServable(t, e)
	if snap := srv.Stats(); snap.CheckpointWrites == 0 {
		t.Fatal("no checkpoints written during the contested solve")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
