package serial

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/roadnet"
)

// seedNetworkJSON renders networks the way cmd/vlpgen does (indented
// WriteJSON), so the fuzz corpus starts from real wire files.
func seedNetworkJSON(tb testing.TB, g *roadnet.Graph) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, FromGraph(g)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func seedGraphs() []*roadnet.Graph {
	rng := rand.New(rand.NewSource(7))
	return []*roadnet.Graph{
		roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3}),
		roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 3, Spacing: 0.25, OneWayFrac: 0.5, WeightJitter: 0.1}),
		roadnet.Campus(rng),
	}
}

// FuzzNetworkRoundTrip checks that decoding a road network from
// arbitrary JSON never panics, and that for every accepted network
// decode→encode→decode is stable (the encoding is a fixed point).
func FuzzNetworkRoundTrip(f *testing.F) {
	for _, g := range seedGraphs() {
		f.Add(seedNetworkJSON(f, g))
	}
	f.Add([]byte(`{"nodes":[{"x":0,"y":0}],"edges":[{"from":0,"to":0,"weight":-1}]}`))
	f.Add([]byte(`{"nodes":[],"edges":[{"from":5,"to":-2,"weight":1e308}]}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var n Network
		if err := json.Unmarshal(data, &n); err != nil {
			t.Skip() // malformed JSON: rejection is the contract
		}
		if len(n.Nodes) > 200 || len(n.Edges) > 800 {
			t.Skip() // keep adversarial blowups out of the time budget
		}
		g, err := n.ToGraph()
		if err != nil {
			return // semantic rejection must be an error, never a panic
		}
		var enc1 bytes.Buffer
		if err := WriteJSON(&enc1, FromGraph(g)); err != nil {
			t.Fatalf("encode accepted network: %v", err)
		}
		var n2 Network
		if err := ReadJSON(bytes.NewReader(enc1.Bytes()), &n2); err != nil {
			t.Fatalf("re-decode own encoding: %v", err)
		}
		g2, err := n2.ToGraph()
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		var enc2 bytes.Buffer
		if err := WriteJSON(&enc2, FromGraph(g2)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("round trip not stable:\nfirst:  %s\nsecond: %s", enc1.Bytes(), enc2.Bytes())
		}
	})
}

// seedMechanismJSON renders a solved-mechanism wire file the way
// cmd/vlpsolve does. The exponential mechanism stands in for a CG solve
// to keep corpus construction fast; the wire format is identical.
func seedMechanismJSON(tb testing.TB, g *roadnet.Graph, delta, eps float64) []byte {
	tb.Helper()
	part, err := discretize.New(g, delta)
	if err != nil {
		tb.Fatal(err)
	}
	pr, err := core.NewProblem(part, core.Config{Epsilon: eps})
	if err != nil {
		tb.Fatal(err)
	}
	m := pr.ExponentialMechanism()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, FromMechanism(m, delta, eps, 0, pr.ETDD(m), 0)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzMechanismRoundTrip checks that decoding a serialized mechanism
// from arbitrary JSON never panics (malformed deltas, K/Z mismatches and
// broken networks must all surface as errors), and that accepted
// mechanisms re-encode stably.
func FuzzMechanismRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	f.Add(seedMechanismJSON(f, roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3}), 0.3, 5))
	f.Add(seedMechanismJSON(f, roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.4, WeightJitter: 0.2}), 0.2, 2))
	f.Add([]byte(`{"network":{"nodes":[],"edges":[]},"delta":1e-308,"k":3,"z":[1]}`))
	f.Add([]byte(`{"k":-5,"z":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sm Mechanism
		if err := json.Unmarshal(data, &sm); err != nil {
			t.Skip()
		}
		if sm.K > 64 || len(sm.Z) > 64*64 {
			t.Skip()
		}
		if sm.Network != nil && (len(sm.Network.Nodes) > 100 || len(sm.Network.Edges) > 400) {
			t.Skip()
		}
		m, err := sm.ToMechanism()
		if err != nil {
			return // rejection is fine; panicking or hanging is not
		}
		var enc1 bytes.Buffer
		if err := WriteJSON(&enc1, FromMechanism(m, sm.Delta, sm.Epsilon, sm.Radius, sm.ETDD, sm.Bound)); err != nil {
			t.Fatalf("encode accepted mechanism: %v", err)
		}
		var sm2 Mechanism
		if err := ReadJSON(bytes.NewReader(enc1.Bytes()), &sm2); err != nil {
			t.Fatalf("re-decode own encoding: %v", err)
		}
		m2, err := sm2.ToMechanism()
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if m2.K() != m.K() {
			t.Fatalf("K changed across round trip: %d → %d", m.K(), m2.K())
		}
		for i := range m.Z {
			if m.Z[i] != m2.Z[i] {
				t.Fatalf("Z[%d] changed across round trip: %v → %v", i, m.Z[i], m2.Z[i])
			}
		}
		var enc2 bytes.Buffer
		if err := WriteJSON(&enc2, FromMechanism(m2, sm2.Delta, sm2.Epsilon, sm2.Radius, sm2.ETDD, sm2.Bound)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("mechanism round trip not stable")
		}
	})
}

// FuzzStoreDecode hammers the durable-store snapshot decoders with
// arbitrary bytes: they must never panic or hang — truncated, bit-flipped
// and hostile inputs all surface as errors — and any accepted snapshot
// must re-encode to the identical byte string (decode∘encode is the
// identity on the valid set, so a recovered file can be re-persisted
// without drift). The one exception is an older writer's entry with a
// pool: it re-encodes to the same bytes up to its pool flag, and no pool
// after it. testdata/fuzz/FuzzStoreDecode holds such an entry as an
// older server wrote it.
func FuzzStoreDecode(f *testing.F) {
	entry := storedTestEntry(f, 3)
	entryBytes, err := EncodeStoredEntry(entry)
	if err != nil {
		f.Fatal(err)
	}
	// A pool checkpoint as a donor writes it: the spec of one prior on
	// the geometry, and its final pool.
	ckSpec := entry.Spec
	ckSpec.Prior = []float64{0.5, 0.25, 0.25}
	ckBytes, err := EncodeStoredCheckpoint(&StoredCheckpoint{Spec: ckSpec, Rounds: 3, State: *storedTestPool(3)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entryBytes)
	f.Add(legacyEntry(f, entry, storedTestPool(3)))
	f.Add(ckBytes)
	f.Add(entryBytes[:len(entryBytes)/2])
	flipped := append([]byte(nil), ckBytes...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("VLPENT1\x00 not really"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip() // keep adversarial blowups out of the time budget
		}
		if e, err := DecodeStoredEntry(data); err == nil {
			re, err := EncodeStoredEntry(e)
			if err != nil {
				t.Fatalf("decoded entry refuses to re-encode: %v", err)
			}
			// Everything before the pool flag (8 bytes before the
			// checksum) must survive.
			flag := len(re) - sha256.Size - 8
			if !bytes.Equal(re, data) && (len(re) >= len(data) || !bytes.Equal(re[:flag], data[:flag])) {
				t.Fatal("entry decode∘encode changes more than a dropped pool")
			}
		}
		if c, err := DecodeStoredCheckpoint(data); err == nil {
			re, err := EncodeStoredCheckpoint(c)
			if err != nil {
				t.Fatalf("decoded checkpoint refuses to re-encode: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatal("checkpoint decode∘encode is not the identity")
			}
		}
	})
}
