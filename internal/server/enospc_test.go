package server

import (
	"context"
	"errors"
	"fmt"
	"syscall"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/store"
)

// TestStoreWriteShedOnENOSPC: a full disk must never fail a request.
// While the store reports ENOSPC, entry persists fail (counted as
// shed, latching degradation), pool checkpoint writes are shed without
// touching the disk at all, and serving continues untouched; when
// space returns the first successful persist clears the latch and
// durability resumes — no restart, no operator action.
func TestStoreWriteShedOnENOSPC(t *testing.T) {
	defer faultinject.Reset()
	st := testStore(t)
	srv := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	defer srv.Shutdown(context.Background())
	specs := testSpecs(t, 3)

	// Healthy baseline: the first solve persists.
	if _, _, err := srv.mechanismFor(context.Background(), specs[0]); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Stats(); snap.StoreWrites != 1 || snap.CheckpointWrites != 1 || snap.StoreWriteShed != 0 {
		t.Fatalf("baseline: store_writes=%d checkpoint_writes=%d shed=%d, want 1/1/0",
			snap.StoreWrites, snap.CheckpointWrites, snap.StoreWriteShed)
	}

	// Disk fills: every store write now fails with ENOSPC.
	faultinject.Set(store.FaultSiteWrite, faultinject.Fault{
		Err: fmt.Errorf("no space left on device: %w", syscall.ENOSPC),
	})

	// The request is served anyway — same solve, same Geo-I gate — and
	// the failed persist is counted and latches degradation.
	e, cached, err := srv.mechanismFor(context.Background(), specs[1])
	if err != nil {
		t.Fatalf("request during ENOSPC failed: %v", err)
	}
	if cached {
		t.Fatal("unexpected cache hit")
	}
	assertServable(t, e)
	snap := srv.Stats()
	if snap.StoreWrites != 1 {
		t.Fatalf("store_writes=%d during ENOSPC, want 1", snap.StoreWrites)
	}
	if snap.StoreWriteShed == 0 {
		t.Fatal("failed persist not counted in store_write_shed")
	}
	if !srv.storeDegraded.Load() {
		t.Fatal("ENOSPC did not latch store degradation")
	}

	// While degraded, checkpoints shed before any I/O: even with the
	// write fault still armed nothing reaches the store.
	shedBefore := snap.StoreWriteShed
	state := mustState(t, specs[2])
	srv.writeCheckpoint(specs[2], 1, state)
	snap = srv.Stats()
	if snap.CheckpointWrites != 1 {
		t.Fatalf("checkpoint committed while degraded: checkpoint_writes=%d, want 1", snap.CheckpointWrites)
	}
	if snap.StoreWriteShed != shedBefore+1 {
		t.Fatalf("shed=%d after checkpoint, want %d", snap.StoreWriteShed, shedBefore+1)
	}

	// Space returns: the next entry persist doubles as the probe, lands,
	// clears the latch, and the same solve's pool checkpoint follows it.
	faultinject.Clear(store.FaultSiteWrite)
	if _, _, err := srv.mechanismFor(context.Background(), specs[2]); err != nil {
		t.Fatal(err)
	}
	snap = srv.Stats()
	if snap.StoreWrites != 2 {
		t.Fatalf("store_writes=%d after recovery, want 2", snap.StoreWrites)
	}
	if srv.storeDegraded.Load() {
		t.Fatal("degradation latch survived a successful persist")
	}
	if snap.CheckpointWrites != 2 {
		t.Fatalf("checkpoint_writes=%d after recovery, want 2", snap.CheckpointWrites)
	}
	if _, err := st.LoadCheckpoint(store.GeometryName(specs[2])); err != nil {
		t.Fatalf("post-recovery pool checkpoint unreadable: %v", err)
	}

	// The recovered snapshot is really on disk.
	if _, err := st.LoadEntry(specs[2].Digest()); err != nil {
		t.Fatalf("post-recovery snapshot unreadable: %v", err)
	}
}

// TestStoreWriteShedNonENOSPCDoesNotLatch: other write failures stay
// best-effort one-offs — no latch, so the next write still tries.
func TestStoreWriteShedNonENOSPCDoesNotLatch(t *testing.T) {
	defer faultinject.Reset()
	st := testStore(t)
	srv := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	defer srv.Shutdown(context.Background())
	spec := testSpecs(t, 1)[0]

	faultinject.Set(store.FaultSiteWrite, faultinject.Fault{
		Err: fmt.Errorf("transient I/O error"), Times: 1,
	})
	if _, _, err := srv.mechanismFor(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	snap := srv.Stats()
	if snap.StoreWriteShed != 0 {
		t.Fatalf("transient failure counted as shed: %d", snap.StoreWriteShed)
	}
	if srv.storeDegraded.Load() {
		t.Fatal("transient failure latched degradation")
	}
}

// TestStoreWriteShedFinalPool: while the store is ENOSPC-degraded, a
// network owner's final pool is shed without I/O and counted, after its
// failed entry persist; the pool is still adopted as donor, and a later
// write of it sheds again.
func TestStoreWriteShedFinalPool(t *testing.T) {
	defer faultinject.Reset()
	st := testStore(t)
	srv := New(context.Background(), Config{Store: st, DisableUpgrade: true})
	defer srv.Shutdown(context.Background())
	specs := testSpecs(t, 2)
	solveVia(t, srv, specs[0])

	faultinject.Set(store.FaultSiteWrite, faultinject.Fault{
		Err: fmt.Errorf("no space left on device: %w", syscall.ENOSPC),
	})
	solveVia(t, srv, specs[1])
	if !srv.storeDegraded.Load() {
		t.Fatal("ENOSPC did not latch store degradation")
	}
	snap := srv.Stats()
	if snap.StoreWriteShed != 2 || snap.CheckpointWrites != 1 {
		t.Fatalf("store_write_shed=%d checkpoint_writes=%d, want 2/1: the failed persist and the shed pool, and the first solve's pool",
			snap.StoreWriteShed, snap.CheckpointWrites)
	}
	donor := donorOf(srv, specs[1])
	if donor == nil {
		t.Fatal("the shed pool was not adopted as donor")
	}
	srv.writeCheckpoint(specs[1], 1, donor)
	if got := srv.Stats().StoreWriteShed; got != 3 {
		t.Fatalf("store_write_shed = %d after the donor's pool, want 3", got)
	}
	if _, err := st.LoadCheckpoint(store.GeometryName(specs[1])); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("a shed pool reached the store: %v", err)
	}
}
