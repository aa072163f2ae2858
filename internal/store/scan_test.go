package store

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/serial"
)

// TestScanShortCircuitNoReread is the refresh-loop regression test:
// once a file has been scanned, an unchanged directory must never be
// re-read. Proven by arming the read fault site for the whole second
// scan — if Scan touched any file it would fail or drop entries.
func TestScanShortCircuitNoReread(t *testing.T) {
	defer faultinject.Reset()
	s := openTestStore(t)
	for seed := int64(40); seed < 43; seed++ {
		if err := s.WriteEntry(testEntry(t, seed, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteCheckpoint(testCheckpoint(t, 43, 3, 2)); err != nil {
		t.Fatal(err)
	}

	// The pool checkpoint is never read: Scan skips it by extension.
	rep, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 3 || len(rep.Delta) != 3 || len(rep.Entries) != 3 {
		t.Fatalf("first scan: loaded %d delta %d entries %d", rep.Loaded, len(rep.Delta), len(rep.Entries))
	}

	// Nothing changed: the rescan must not read a single file.
	faultinject.Set(FaultSiteRead, faultinject.Fault{Err: errors.New("re-read!")})
	rep2, err := s.Scan()
	faultinject.Clear(FaultSiteRead)
	if err != nil {
		t.Fatalf("rescan hit the disk: %v", err)
	}
	if rep2.Loaded != 0 || len(rep2.Delta) != 0 {
		t.Fatalf("rescan of unchanged dir: loaded %d delta %d, want 0/0", rep2.Loaded, len(rep2.Delta))
	}
	if len(rep2.Entries) != 3 {
		t.Fatalf("rescan dropped cached results: entries %d", len(rep2.Entries))
	}

	// A new commit surfaces as exactly one load, in Delta.
	e4 := testEntry(t, 44, 3)
	if err := s.WriteEntry(e4); err != nil {
		t.Fatal(err)
	}
	rep3, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Loaded != 1 || len(rep3.Delta) != 1 || rep3.Delta[0] != e4.Spec.Digest() {
		t.Fatalf("scan after new commit: loaded %d delta %+v", rep3.Loaded, rep3.Delta)
	}
	if len(rep3.Entries) != 4 {
		t.Fatalf("scan after new commit: %d entries, want 4", len(rep3.Entries))
	}

	// An in-place upgrade (same name, new bytes) is also a delta.
	up := testEntry(t, 40, 3)
	up.Tier = serial.QualityOptimal
	if err := s.WriteEntry(up); err != nil {
		t.Fatal(err)
	}
	rep4, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Loaded != 1 || len(rep4.Delta) != 1 || rep4.Delta[0] != up.Spec.Digest() {
		t.Fatalf("scan after upgrade: loaded %d delta %+v", rep4.Loaded, rep4.Delta)
	}

	// A vanished file falls out of the report.
	if err := os.Remove(filepath.Join(s.Dir(), up.Spec.Digest()+entryExt)); err != nil {
		t.Fatal(err)
	}
	rep5, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep5.Entries) != 3 || rep5.Loaded != 0 {
		t.Fatalf("scan after delete: entries %d loaded %d", len(rep5.Entries), rep5.Loaded)
	}
}

// TestScanRefreshFaultSite: the refresh fault site fails Scan soft.
func TestScanRefreshFaultSite(t *testing.T) {
	defer faultinject.Reset()
	s := openTestStore(t)
	boom := errors.New("injected")
	faultinject.Set(FaultSiteRefresh, faultinject.Fault{Err: boom, Times: 1})
	if _, err := s.Scan(); !errors.Is(err, boom) {
		t.Fatalf("scan with refresh armed: %v, want injected error", err)
	}
	if _, err := s.Scan(); err != nil {
		t.Fatalf("scan after fault cleared: %v", err)
	}
}

// TestStoreTwoProcessQuarantine simulates two server processes (two
// Opens of one directory) fighting over the same digest while torn
// writes are injected: the committed file must always be one writer's
// whole value, corrupt files must be quarantined by exactly the
// discovering reader without tripping the other, and nothing panics.
func TestStoreTwoProcessQuarantine(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, 50, 3)
	digest := e.Spec.Digest()

	// Half the writes die mid-write (torn temp files), spread across
	// both "processes" racing the same digest.
	faultinject.Set(FaultSiteShortWrite, faultinject.Fault{Err: errors.New("torn"), Times: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		st := s1
		if g%2 == 1 {
			st = s2
		}
		go func(st *Store, g int) {
			defer wg.Done()
			w := testEntry(t, 50, 3)
			w.ETDD = 0.5 + float64(g)/100
			_ = st.WriteEntry(w) // torn writes are expected to error
		}(st, g)
	}
	wg.Wait()
	faultinject.Reset()

	// Whatever survived must be a whole, valid snapshot from one writer.
	got, err := s2.LoadEntry(digest)
	if err != nil {
		t.Fatalf("no valid snapshot after concurrent torn writes: %v", err)
	}
	if got.ETDD < 0.5 || got.ETDD > 0.58 {
		t.Fatalf("committed snapshot is no writer's value: ETDD %v", got.ETDD)
	}
	rep, err := s1.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 || rep.Quarantined != 0 {
		t.Fatalf("scan after torn races: %+v", rep)
	}

	// Now plant a corrupt committed snapshot and have both processes
	// discover it at once: it must end up quarantined (not served, not
	// torn in half by the double rename), and both loaders must report
	// ErrCorrupt or ErrNotFound — never a panic or a served corruption.
	bad := testEntry(t, 51, 3)
	badData, err := serial.EncodeStoredEntry(bad)
	if err != nil {
		t.Fatal(err)
	}
	badData[len(badData)/2] ^= 0xFF
	badName := bad.Spec.Digest() + entryExt
	if err := os.WriteFile(filepath.Join(dir, badName), badData, 0o644); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for _, st := range []*Store{s1, s2} {
		go func(st *Store) {
			_, err := st.LoadEntry(bad.Spec.Digest())
			errs <- err
		}(st)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
			t.Fatalf("concurrent corrupt load: %v", err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, badName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt file still in the serving path after concurrent discovery")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, badName)); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
}
