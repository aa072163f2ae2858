package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/roadnet"
	"repro/internal/serial"
)

// testSpec returns a small valid solve spec; distinct seeds give
// distinct digests.
func testSpec(tb testing.TB, seed int64) serial.SolveSpec {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := serial.FromGraph(roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3, WeightJitter: 0.1}))
	return serial.SolveSpec{Network: net, Delta: 0.3, Epsilon: 5}
}

// testEntry builds a valid incumbent-tier entry snapshot over k
// intervals for the given spec seed.
func testEntry(tb testing.TB, seed int64, k int) *serial.StoredEntry {
	tb.Helper()
	z := make([]float64, k*k)
	for i := range z {
		z[i] = 1 / float64(k)
	}
	return &serial.StoredEntry{
		Spec:  testSpec(tb, seed),
		Tier:  serial.QualityIncumbent,
		ETDD:  0.5,
		Bound: 0.25,
		K:     k,
		Z:     z,
	}
}

// testCheckpoint builds a valid pool checkpoint over k intervals, one CG
// column per block, for the given spec seed.
func testCheckpoint(tb testing.TB, seed int64, k, rounds int) *serial.StoredCheckpoint {
	tb.Helper()
	cols := make([]core.CGColumnSnapshot, k)
	for l := range cols {
		zc := make([]float64, k)
		zc[l] = 1
		cols[l] = core.CGColumnSnapshot{L: l, Z: zc, Cost: 0.25}
	}
	return &serial.StoredCheckpoint{Spec: testSpec(tb, seed), Rounds: rounds, State: core.CGStateSnapshot{K: k, Columns: cols}}
}

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreEntryRoundTrip(t *testing.T) {
	s := openTestStore(t)
	e := testEntry(t, 1, 3)
	digest := e.Spec.Digest()

	if _, err := s.LoadEntry(digest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load before write: %v, want ErrNotFound", err)
	}
	if err := s.WriteEntry(e); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadEntry(digest)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tier != e.Tier || got.ETDD != e.ETDD || got.K != e.K || got.Spec.Digest() != digest {
		t.Fatalf("entry changed across store round trip: %+v", got)
	}

	// Overwrite with a better tier: last write wins, whole.
	e.Tier = serial.QualityOptimal
	if err := s.WriteEntry(e); err != nil {
		t.Fatal(err)
	}
	got, err = s.LoadEntry(digest)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tier != serial.QualityOptimal {
		t.Fatalf("overwrite not visible: %+v", got)
	}
}

// TestStoreCheckpointRoundTrip: a pool checkpoint is filed under its
// spec's geometry key, so a spec with another prior on the same
// geometry reads the same one and a later write replaces it; a
// checkpoint filed under another geometry's key is quarantined.
func TestStoreCheckpointRoundTrip(t *testing.T) {
	s := openTestStore(t)
	c := testCheckpoint(t, 2, 3, 9)
	geometry := GeometryName(&c.Spec)

	if _, err := s.LoadCheckpoint(geometry); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load before write: %v, want ErrNotFound", err)
	}
	if err := s.WriteCheckpoint(c); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadCheckpoint(geometry)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != 9 || got.Spec.Digest() != c.Spec.Digest() || len(got.State.Columns) != 3 {
		t.Fatalf("checkpoint changed across store round trip: %+v", got)
	}

	other := *c
	other.Spec.Prior = []float64{0.2, 0.3, 0.5}
	other.Rounds = 3
	if GeometryName(&other.Spec) != geometry {
		t.Fatal("a prior changed the geometry key")
	}
	if err := s.WriteCheckpoint(&other); err != nil {
		t.Fatal(err)
	}
	if got, err := s.LoadCheckpoint(geometry); err != nil || got.Rounds != 3 || got.Spec.Digest() != other.Spec.Digest() {
		t.Fatalf("second writer on the geometry: %+v, %v", got, err)
	}

	misnamed := testSpec(t, 3)
	misnamed.Epsilon++
	if err := os.Rename(filepath.Join(s.Dir(), geometry+CheckpointExt), filepath.Join(s.Dir(), GeometryName(&misnamed)+CheckpointExt)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadCheckpoint(GeometryName(&misnamed)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("misnamed checkpoint: %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), quarantineDir, GeometryName(&misnamed)+CheckpointExt)); err != nil {
		t.Fatalf("misnamed checkpoint not quarantined: %v", err)
	}
}

// TestStoreCommitFaults kills the durability protocol at every injected
// site and asserts the invariant: a failed commit never damages the
// previously committed snapshot, and never exposes a torn committed
// file.
func TestStoreCommitFaults(t *testing.T) {
	boom := errors.New("injected")
	for _, site := range []string{FaultSiteWrite, FaultSiteShortWrite, FaultSiteFsync, FaultSiteRename} {
		t.Run(strings.TrimPrefix(site, "store/"), func(t *testing.T) {
			defer faultinject.Reset()
			s := openTestStore(t)
			e := testEntry(t, 3, 3)
			digest := e.Spec.Digest()
			if err := s.WriteEntry(e); err != nil {
				t.Fatal(err)
			}

			// Second write, upgraded tier, dies at the armed site.
			e2 := testEntry(t, 3, 3)
			e2.Tier = serial.QualityOptimal
			faultinject.Set(site, faultinject.Fault{Err: boom, Times: 1})
			if err := s.WriteEntry(e2); !errors.Is(err, boom) {
				t.Fatalf("commit with %s armed: %v, want injected error", site, err)
			}

			// The first committed snapshot is intact, byte for byte.
			got, err := s.LoadEntry(digest)
			if err != nil {
				t.Fatalf("prior snapshot lost after failed commit: %v", err)
			}
			if got.Tier != serial.QualityIncumbent {
				t.Fatalf("failed commit became visible: tier %q", got.Tier)
			}

			// After the fault clears, the commit goes through.
			if err := s.WriteEntry(e2); err != nil {
				t.Fatal(err)
			}
			if got, err = s.LoadEntry(digest); err != nil || got.Tier != serial.QualityOptimal {
				t.Fatalf("retry after fault: entry %+v, err %v", got, err)
			}
		})
	}
}

// TestStoreShortWriteLeavesOnlyDebris: a torn write (half the bytes,
// then death) must leave temp debris — never a committed file. Fresh
// debris survives a scan (a fleet peer could be mid-commit under the
// same name pattern); once older than the grace period, Scan sweeps it.
func TestStoreShortWriteLeavesOnlyDebris(t *testing.T) {
	defer faultinject.Reset()
	s := openTestStore(t)
	e := testEntry(t, 4, 3)
	faultinject.Set(FaultSiteShortWrite, faultinject.Fault{Err: errors.New("torn"), Times: 1})
	if err := s.WriteEntry(e); err == nil {
		t.Fatal("torn write reported success")
	}
	var debris []string
	names, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			debris = append(debris, de.Name())
		} else if !de.IsDir() {
			t.Fatalf("torn write committed a file: %s", de.Name())
		}
	}
	if len(debris) == 0 {
		t.Fatal("torn write left no temp file to exercise recovery against")
	}

	rep, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 0 || rep.Quarantined != 0 {
		t.Fatalf("scan over debris: %+v, want empty report", rep)
	}
	// Fresh debris is untouched: it could be a live peer's in-flight
	// commit.
	for _, name := range debris {
		if _, err := os.Stat(filepath.Join(s.Dir(), name)); err != nil {
			t.Fatalf("scan removed fresh temp file %s: %v", name, err)
		}
	}

	// Backdate the debris past the grace period; now it is provably a
	// crashed write and the next scan sweeps it.
	old := time.Now().Add(-2 * debrisGrace)
	for _, name := range debris {
		if err := os.Chtimes(filepath.Join(s.Dir(), name), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Scan(); err != nil {
		t.Fatal(err)
	}
	names, err = os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			t.Fatalf("scan left expired temp debris behind: %s", de.Name())
		}
	}
}

func TestStoreReadFault(t *testing.T) {
	defer faultinject.Reset()
	s := openTestStore(t)
	e := testEntry(t, 5, 3)
	if err := s.WriteEntry(e); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk gone")
	faultinject.Set(FaultSiteRead, faultinject.Fault{Err: boom, Times: 1})
	_, err := s.LoadEntry(e.Spec.Digest())
	if !errors.Is(err, boom) {
		t.Fatalf("read fault: %v, want injected error", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatal("I/O failure misreported as corruption")
	}
	// The file must NOT have been quarantined — it is fine, the disk hiccuped.
	if _, err := s.LoadEntry(e.Spec.Digest()); err != nil {
		t.Fatalf("entry gone after transient read fault: %v", err)
	}
}

// TestStoreCorruptionQuarantine: every on-disk corruption mode —
// truncation, bit flips, a snapshot renamed to the wrong digest,
// garbage — loads as ErrCorrupt and leaves the file quarantined, not in
// the serving path.
func TestStoreCorruptionQuarantine(t *testing.T) {
	e := testEntry(t, 6, 3)
	digest := e.Spec.Digest()
	valid, err := serial.EncodeStoredEntry(e)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func() []byte{
		"truncated header": func() []byte { return valid[:4] },
		"truncated body":   func() []byte { return valid[:len(valid)/2] },
		"truncated checksum": func() []byte {
			return valid[:len(valid)-8]
		},
		"bit flip": func() []byte {
			bad := append([]byte(nil), valid...)
			bad[len(bad)/2] ^= 0x10
			return bad
		},
		"empty file": func() []byte { return nil },
		"garbage":    func() []byte { return []byte("not a snapshot at all") },
	}
	for name, make := range corruptions {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			s := openTestStore(t)
			path := filepath.Join(s.Dir(), digest+entryExt)
			if err := os.WriteFile(path, make(), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := s.LoadEntry(digest)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("load corrupt snapshot: %v, want ErrCorrupt", err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("corrupt file still in the serving path")
			}
			if _, err := os.Stat(filepath.Join(s.Dir(), quarantineDir, digest+entryExt)); err != nil {
				t.Fatalf("corrupt file not quarantined: %v", err)
			}
			// Second load: the file is gone, so plain not-found.
			if _, err := s.LoadEntry(digest); !errors.Is(err, ErrNotFound) {
				t.Fatalf("load after quarantine: %v, want ErrNotFound", err)
			}
		})
	}

	// A perfectly valid snapshot filed under the wrong digest (rename
	// attack / filesystem mixup) is also corruption: serving it would
	// answer the wrong spec.
	t.Run("wrong-digest-name", func(t *testing.T) {
		s := openTestStore(t)
		otherSpec := testSpec(t, 7)
		other := otherSpec.Digest()
		if other == digest {
			t.Fatal("test specs collided")
		}
		path := filepath.Join(s.Dir(), other+entryExt)
		if err := os.WriteFile(path, valid, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LoadEntry(other); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("load mis-filed snapshot: %v, want ErrCorrupt", err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("mis-filed snapshot still in the serving path")
		}
	})
}

// TestStoreScan: a directory holding valid entries, a pool checkpoint,
// a corrupt snapshot, a per-digest checkpoint from before pools were
// keyed by geometry, temp debris and a foreign file scans into exactly
// the right report without ever failing. Scan leaves pool checkpoints
// alone, valid or not: only LoadCheckpoint decodes one.
func TestStoreScan(t *testing.T) {
	s := openTestStore(t)

	e1 := testEntry(t, 10, 3)
	e2 := testEntry(t, 11, 3)
	e2.Tier = serial.QualityOptimal
	if err := s.WriteEntry(e1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteEntry(e2); err != nil {
		t.Fatal(err)
	}
	ck := testCheckpoint(t, 12, 3, 4)
	if err := s.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}

	// Plant a corrupt entry, a per-digest checkpoint, a torn pool
	// checkpoint, temp debris and a foreign file.
	badEntry := testEntry(t, 13, 3)
	badData, err := serial.EncodeStoredEntry(badEntry)
	if err != nil {
		t.Fatal(err)
	}
	badData[len(badData)/2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(s.Dir(), badEntry.Spec.Digest()+entryExt), badData, 0o644); err != nil {
		t.Fatal(err)
	}
	tornSpec := testSpec(t, 14)
	if err := os.WriteFile(filepath.Join(s.Dir(), tornSpec.Digest()+".ckpt"), []byte("per digest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), GeometryName(&tornSpec)+CheckpointExt), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), tmpPrefix+"abandoned-123"), []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "README.txt"), []byte("what is this doing here"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 2 {
		t.Fatalf("scan found %d entries, want 2: %+v", len(rep.Entries), rep.Entries)
	}
	want := []string{e1.Spec.Digest(), e2.Spec.Digest()}
	sort.Strings(want)
	if rep.Entries[0] != want[0] || rep.Entries[1] != want[1] {
		t.Fatalf("scan entries %v, want %v", rep.Entries, want)
	}
	if rep.Quarantined != 3 {
		t.Fatalf("scan quarantined %d files, want 3 (corrupt entry, per-digest checkpoint, foreign file)", rep.Quarantined)
	}

	// Survivors still load; debris is gone; a rescan is clean.
	if _, err := s.LoadEntry(e1.Spec.Digest()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadCheckpoint(GeometryName(&ck.Spec)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), GeometryName(&tornSpec)+CheckpointExt)); err != nil {
		t.Fatalf("scan touched a pool checkpoint: %v", err)
	}
	rep2, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Entries) != 2 || rep2.Quarantined != 0 {
		t.Fatalf("rescan not clean: %+v", rep2)
	}
}

func TestStoreOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
	// Opening a path whose parent is a file must fail, not wedge.
	dir := t.TempDir()
	file := filepath.Join(dir, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub")); err == nil {
		t.Fatal("Open accepted a directory under a regular file")
	}
}

// TestStoreConcurrentWrites hammers one digest from many goroutines;
// under -race this doubles as the data-race check, and afterwards the
// committed snapshot must be one of the writers' values, whole.
func TestStoreConcurrentWrites(t *testing.T) {
	s := openTestStore(t)
	e := testEntry(t, 20, 3)
	digest := e.Spec.Digest()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			w := testEntry(t, 20, 3)
			w.ETDD = 0.5 + float64(g)/100
			done <- s.WriteEntry(w)
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.LoadEntry(digest)
	if err != nil {
		t.Fatal(err)
	}
	if got.ETDD < 0.5 || got.ETDD > 0.58 {
		t.Fatalf("committed snapshot is no writer's value: ETDD %v", got.ETDD)
	}
}
