package serial

import (
	"bytes"
	"crypto/sha256"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
)

// storedTestSpec is a small valid spec shared by the snapshot tests.
func storedTestSpec(tb testing.TB) SolveSpec {
	tb.Helper()
	rng := rand.New(rand.NewSource(21))
	net := FromGraph(roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3}))
	return SolveSpec{Network: net, Delta: 0.3, Epsilon: 5}
}

// storedTestEntry builds a valid degraded entry snapshot (uniform rows)
// over k intervals.
func storedTestEntry(tb testing.TB, k int) *StoredEntry {
	tb.Helper()
	z := make([]float64, k*k)
	for i := range z {
		z[i] = 1 / float64(k)
	}
	return &StoredEntry{
		Spec:  storedTestSpec(tb),
		Tier:  QualityIncumbent,
		ETDD:  0.5,
		Bound: 0.25,
		K:     k,
		Z:     z,
		Fence: 3,
	}
}

// storedTestPool builds a valid column pool over k intervals, one CG
// column per block.
func storedTestPool(k int) *core.CGStateSnapshot {
	cols := make([]core.CGColumnSnapshot, k)
	for l := range cols {
		zc := make([]float64, k)
		zc[l] = 1
		cols[l] = core.CGColumnSnapshot{L: l, Z: zc, Cost: 0.25}
	}
	return &core.CGStateSnapshot{K: k, Columns: cols}
}

// legacyEntry encodes e as writers did when degraded entries carried
// their run's pool: with pool in the entry's pool field.
func legacyEntry(tb testing.TB, e *StoredEntry, pool *core.CGStateSnapshot) []byte {
	tb.Helper()
	data, err := EncodeStoredEntry(e)
	if err != nil {
		tb.Fatal(err)
	}
	// Drop the checksum and the zero pool flag before it.
	w := &snapWriter{buf: append([]byte(nil), data[:len(data)-sha256.Size-8]...)}
	w.u64(1)
	w.state(pool)
	return w.seal()
}

// TestStoredEntryRoundTrip: an entry survives encode and decode, and an
// older writer's entry with a pool decodes to the same entry, pool
// dropped, re-encoding without it.
func TestStoredEntryRoundTrip(t *testing.T) {
	e := storedTestEntry(t, 3)
	data, err := EncodeStoredEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{"current": data, "legacy": legacyEntry(t, e, storedTestPool(3))} {
		got, err := DecodeStoredEntry(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Tier != e.Tier || got.ETDD != e.ETDD || got.Bound != e.Bound || got.K != e.K || got.Fence != e.Fence {
			t.Fatalf("%s: metadata changed: %+v vs %+v", name, got, e)
		}
		if got.Spec.Digest() != e.Spec.Digest() {
			t.Fatalf("%s: spec digest changed across round trip", name)
		}
		for i := range e.Z {
			if got.Z[i] != e.Z[i] {
				t.Fatalf("%s: Z[%d] changed: %v vs %v", name, i, got.Z[i], e.Z[i])
			}
		}
		// Deterministic: re-encoding the decoded value gives the current
		// encoding, byte for byte.
		data2, err := EncodeStoredEntry(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("%s: entry re-encodes to other bytes", name)
		}
	}
}

// TestStoredCheckpointRoundTrip: a geometry's pool checkpoint keeps the
// full spec of the solve that wrote it, prior included, so the store
// can check its geometry key against the file name.
func TestStoredCheckpointRoundTrip(t *testing.T) {
	e := storedTestEntry(t, 3)
	c := &StoredCheckpoint{Spec: e.Spec, Rounds: 7, Fence: 9, State: *storedTestPool(3)}
	c.Spec.Prior = []float64{0.5, 0.25, 0.25}
	data, err := EncodeStoredCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStoredCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != 7 || got.Spec.Digest() != c.Spec.Digest() || len(got.State.Columns) != len(c.State.Columns) || got.Fence != 9 {
		t.Fatalf("checkpoint changed across round trip: %+v", got)
	}
	if got.Spec.GeometryKey() != e.Spec.GeometryKey() {
		t.Fatal("the writer's prior moved its checkpoint to another geometry")
	}
	data2, err := EncodeStoredCheckpoint(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("checkpoint encoding is not a fixed point")
	}

	// The two snapshot kinds must not decode as each other.
	if _, err := DecodeStoredEntry(data); err == nil {
		t.Fatal("checkpoint decoded as an entry")
	}
	entryData, err := EncodeStoredEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeStoredCheckpoint(entryData); err == nil {
		t.Fatal("entry decoded as a checkpoint")
	}
}

// TestStoredDecodeRejectsCorruption: every byte-level corruption — bit
// flips anywhere, truncation at every length, trailing garbage — must be
// rejected (and must not panic).
func TestStoredDecodeRejectsCorruption(t *testing.T) {
	data, err := EncodeStoredEntry(storedTestEntry(t, 3))
	if err != nil {
		t.Fatal(err)
	}

	// Bit flips: every byte position, one flipped bit.
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 1 << (i % 8)
		if _, err := DecodeStoredEntry(bad); err == nil {
			t.Fatalf("accepted snapshot with bit flip at byte %d", i)
		}
	}
	// Truncations at every length.
	for n := 0; n < len(data); n++ {
		if _, err := DecodeStoredEntry(data[:n]); err == nil {
			t.Fatalf("accepted snapshot truncated to %d bytes", n)
		}
	}
	// Trailing garbage breaks the checksum.
	if _, err := DecodeStoredEntry(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("accepted snapshot with trailing garbage")
	}
}

// TestStoredValidateRejectsBadValues: encode refuses snapshots whose
// fields violate the invariants the decoder would reject, so a corrupt
// snapshot can never be committed by a correct writer; and decode
// rejects an older writer's entry whose pool is invalid.
func TestStoredValidateRejectsBadValues(t *testing.T) {
	cases := map[string]func(*StoredEntry){
		"NaN in Z":        func(e *StoredEntry) { e.Z[0] = math.NaN() },
		"Inf in Z":        func(e *StoredEntry) { e.Z[0] = math.Inf(1) },
		"negative row":    func(e *StoredEntry) { e.Z[0] = -0.5; e.Z[1] += 0.5 },
		"row not summing": func(e *StoredEntry) { e.Z[0] += 0.5 },
		"bad tier":        func(e *StoredEntry) { e.Tier = "bogus" },
		"negative ETDD":   func(e *StoredEntry) { e.ETDD = -1 },
		"NaN bound":       func(e *StoredEntry) { e.Bound = math.NaN() },
		"K mismatch":      func(e *StoredEntry) { e.K = 2 },
		"spec epsilon":    func(e *StoredEntry) { e.Spec.Epsilon = -1 },
	}
	for name, mutate := range cases {
		e := storedTestEntry(t, 3)
		mutate(e)
		if _, err := EncodeStoredEntry(e); err == nil {
			t.Errorf("%s: encode accepted an invalid snapshot", name)
		}
	}
	pools := map[string]func(*core.CGStateSnapshot){
		"state K mismatch":  func(p *core.CGStateSnapshot) { *p = *storedTestPool(2) },
		"state col L":       func(p *core.CGStateSnapshot) { p.Columns[0].L = 99 },
		"state col NaN":     func(p *core.CGStateSnapshot) { p.Columns[0].Z[0] = math.NaN() },
		"state col above 1": func(p *core.CGStateSnapshot) { p.Columns[0].Z[0] = 1.5 },
		"state no columns":  func(p *core.CGStateSnapshot) { p.Columns = nil },
	}
	for name, mutate := range pools {
		pool := storedTestPool(3)
		mutate(pool)
		if _, err := DecodeStoredEntry(legacyEntry(t, storedTestEntry(t, 3), pool)); err == nil {
			t.Errorf("%s: decode accepted an invalid pool", name)
		}
	}
}
