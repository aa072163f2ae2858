package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/serial"
)

// goldenObfuscate pins the SHA-256 of "status\ncontent-type\nbody" for
// every step of goldenSequence, plus one "stats" row over the counters
// the sequence moves. The table was recorded from the encoding/json
// handler; a faster decoder or encoder must reproduce it byte for byte.
var goldenObfuscate = []struct{ name, hash string }{
	{"cold-miss", "c5e11bda784e6cb12bff72cae405bd538c2a7551cce280e1c573b80a5dec93ae"},
	{"hit", "5344502f9383464d211d82ba5933e937861f82d98997680abb93becd5f5e12a9"},
	{"hit-batch-16", "c39dd5a26bcdfbdc77aad4591c97f3c5edfc21e942cee17db95a597e0149b761"},
	{"hit-repeat-bytes", "325311ec5c979956a5ba46a91a446b35d33570fa515510256c9bbd14d49dbf75"},
	{"reordered-keys", "5ee845c9882bb1483adedd890d8487b5089c4631a0396122a0fbd94fa1b9d33b"},
	{"extra-whitespace", "82905bfbd1d09d2984c248335bd0b078a709d9467f9b4b069827a9ff2c4b558d"},
	{"case-variant-key", "ff4d6553e81d154f7c354101fc9a107d25a4ad208a3b983f9eac67490c4e11b0"},
	{"escaped-key", "e68849b42efe7783bbe28df3a7d3a5d58a01b7329f7d4860fbea23ac00a199e8"},
	{"duplicate-locations", "3ee8b7d1ee39c4bc8cc20edc31b31f840122b92933c4e794c2680e12cc446631"},
	{"null-locations", "7308b12ec9d690f86fe1b98cb7ad265c15a9f28be20f17673646c99e3690ded9"},
	{"missing-locations", "7308b12ec9d690f86fe1b98cb7ad265c15a9f28be20f17673646c99e3690ded9"},
	{"trailing-bytes", "18df91a162227c1c42a9fb69863baf1e15e5ac3f1ec65e85777d007ee003c0f6"},
	{"trailing-whitespace", "29805e0cd5d0f13fccbacce19a0ef5418fbbcdcc5bb821e4c3c8fd3a6bd7cad0"},
	{"empty-batch", "7308b12ec9d690f86fe1b98cb7ad265c15a9f28be20f17673646c99e3690ded9"},
	{"over-max-batch", "58e2d56a1301279a2bf1c4a6bc2cbaaf1ea17a89cc0ad8416cdc0823cf10926f"},
	{"bad-road", "36abff06ca1b8b4496aa4b2071e3ad10b10da6318237fbfe5cc6c4765a93351c"},
	{"negative-road", "36abff06ca1b8b4496aa4b2071e3ad10b10da6318237fbfe5cc6c4765a93351c"},
	{"from-start-out-of-range", "110ae7495278c724b27d076e2611774dae4f5178d68cf6148df981307aefa38a"},
	{"road-not-integer", "9dc8d7502481bc643fe22bf8e8f2c396d0869673becf0384e05ab5938db3c0d2"},
	{"string-locations", "293b6c4a0b2563c2da545ca96f2a4fc0828c9256a5d1edf15316b38c1ed5eaec"},
	{"noncanonical-locations", "b5ea3d54e97592c5e099c3d72358a9576fb3f803f1d71d667113a0190a88881d"},
	{"invalid-spec", "e029b1462638c3badfdfe7d6a5880f4f33b284f155a455b245daf6809dd11c9e"},
	{"not-object", "e9a940d309e31ec56e554353e5e377bf718153ef6c47503f1e2c13f620d76c8b"},
	{"truncated", "9d32757839e7d19e438a4901ebe38a12f805d371dc0bfb14f2172fa1b42dc331"},
	{"empty-body", "d5d49fecb75eb2d5c95e8e4228b3b366285cadc4a6f52400f96fb7a9a7958811"},
	{"oversize", "24ed2f20f3d28f38dc89747a35e3ea541e8dc027a00ebb099bb714efcf15f090"},
	{"oversize-after-value", "70801655175fed48a576180a4d4e96b543e6f9ea859ca50fae712a46b77918ee"},
	{"degraded-cold", "cee5540cd6ba6150f44d6ee871abe6d1429d438ab61e068cbbc75183e2c5ec98"},
	{"degraded-hit", "f5953dac246ad917471961b2da21dbe4bff9daa3c9140e8044f75e750d05d123"},
	{"hit-after", "d0701afc95456141b88c30555600a4c32fa10f4b254b3f8ca4aa1ea8998f177d"},
	{"evict-1", "d5652d6ccb912ccb69df3158bef8415598618477cd5feb27989f46e39f985428"},
	{"evict-2", "a42df0653a0156bff6d7a9dc310a76fad39f4fbb15affa6e0b87e1b2456f76c0"},
	{"evict-3", "0144b6676e087fa29c82619bc289754f9759ce0084a873664ffe6d574469bfc9"},
	{"evict-4", "857460490751e9cfe47b95cf868e489e9b73f644fb7ce413815a1142bc445209"},
	{"re-miss-after-evict", "bf24048278899d1f4174fca61ebd09c9cd2ef20f44632eead7bad8a16f8ee325"},
	{"re-hit", "888afc3a7476699756327bbdc499da4cd2b95c627f63214c8069a571308404a1"},
	{"stats", "57f0ad10c206aa6de2fa552e47f04a20c87c1835052c4d7fe330c66dc8b4b148"},
}

// goldenStep is one request of the golden sequence.
type goldenStep struct {
	name string
	body []byte
}

// goldenSequence builds the fixed request sequence: a cold miss and
// hits in the canonical json.Marshal form, then every wire variant the
// /obfuscate decoder must treat exactly like encoding/json does.
func goldenSequence(t *testing.T) []goldenStep {
	t.Helper()
	rng := rand.New(rand.NewSource(20))
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 3, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.1})
	net := serial.FromGraph(g)
	specA := serial.SolveSpec{Network: net, Delta: 0.2, Epsilon: 5}
	specB := serial.SolveSpec{Network: net, Delta: 0.2, Epsilon: goldenDegradedEps}

	locs := func(n int) []serial.Loc {
		out := make([]serial.Loc, n)
		for i := range out {
			road := rng.Intn(g.NumEdges())
			out[i] = serial.Loc{Road: road, FromStart: rng.Float64() * g.Edge(roadnet.EdgeID(road)).Weight}
		}
		return out
	}
	marshal := func(v interface{}) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	req := func(spec serial.SolveSpec, l []serial.Loc) []byte {
		return marshal(&serial.ObfuscateRequest{SolveSpec: spec, Locations: l})
	}
	// withLocs splices a raw locations member into spec's JSON object.
	specJSON := marshal(&specA)
	withLocs := func(key, value string) []byte {
		body := append([]byte{}, specJSON[:len(specJSON)-1]...)
		return append(body, fmt.Sprintf(",%q:%s}", key, value)...)
	}
	pad := func(body []byte, n int) []byte {
		return append(append([]byte{}, body...), bytes.Repeat([]byte{' '}, n)...)
	}

	first := req(specA, locs(4))
	l1, l2 := marshal(locs(3)), marshal(locs(2))
	indented, err := json.MarshalIndent(&serial.ObfuscateRequest{SolveSpec: specA, Locations: locs(5)}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	badSpec := specA
	badSpec.Delta = -1
	over := make([]serial.Loc, maxBatch+1)
	evict := func(eps float64) serial.SolveSpec {
		spec := specA
		spec.Epsilon = eps
		return spec
	}
	return []goldenStep{
		{"cold-miss", first},
		{"hit", req(specA, locs(4))},
		{"hit-batch-16", req(specA, locs(16))},
		{"hit-repeat-bytes", first},
		{"reordered-keys", append(append([]byte(`{"locations":`), l1...), append([]byte{','}, specJSON[1:]...)...)},
		{"extra-whitespace", indented},
		{"case-variant-key", withLocs("Locations", string(l1))},
		{"escaped-key", []byte(strings.Replace(string(withLocs("locations", string(l1))), `"locations"`, `"loc\u0061tions"`, 1))},
		{"duplicate-locations", withLocs("locations", string(l1)+`,"locations":`+string(l2))},
		{"null-locations", withLocs("locations", "null")},
		{"missing-locations", specJSON},
		{"trailing-bytes", append(req(specA, locs(2)), " trailing"...)},
		{"trailing-whitespace", append(req(specA, locs(2)), "\n\t "...)},
		{"empty-batch", withLocs("locations", "[]")},
		{"over-max-batch", req(specA, over)},
		{"bad-road", req(specA, []serial.Loc{{Road: 9999, FromStart: 0}})},
		{"negative-road", req(specA, []serial.Loc{{Road: -1, FromStart: 0}})},
		{"from-start-out-of-range", req(specA, []serial.Loc{{Road: 0, FromStart: 1e9}})},
		{"road-not-integer", withLocs("locations", `[{"road":1.5,"from_start":0.1}]`)},
		{"string-locations", withLocs("locations", `"nope"`)},
		{"noncanonical-locations", withLocs("locations", ` [ {"from_start" : 1e-1, "road": 2, "extra": [1,{"x":"]"}]} ,{"Road":0,"FROM_START":0.05}] `)},
		{"invalid-spec", req(badSpec, locs(1))},
		{"not-object", []byte(`[{"road":0,"from_start":0.1}]`)},
		{"truncated", specJSON[:40]},
		{"empty-body", nil},
		{"oversize", pad([]byte(`{"network":`), maxBodyBytes+1)},
		{"oversize-after-value", pad(req(specA, locs(1)), maxBodyBytes)},
		{"degraded-cold", req(specB, locs(3))},
		{"degraded-hit", req(specB, locs(3))},
		{"hit-after", req(specA, locs(4))},
		// Four more specs cycle the LRU (CacheSize 4) and evict specA,
		// so its canonical bytes must miss and solve again.
		{"evict-1", req(evict(6), locs(1))},
		{"evict-2", req(evict(7), locs(1))},
		{"evict-3", req(evict(8), locs(1))},
		{"evict-4", req(evict(9), locs(1))},
		{"re-miss-after-evict", first},
		{"re-hit", req(specA, locs(4))},
	}
}

// goldenDegradedEps marks the spec whose stub entry serves the
// incumbent rung, so the sequence also exercises degraded counting.
const goldenDegradedEps = 3

// TestGoldenObfuscateResponses drives goldenSequence through Handler()
// on one server whose solves are the closed-form exponential mechanism
// (no LP, so the bytes do not depend on the SYRK kernel) and checks
// every status, content type and body, and the hit/miss/degraded
// counters, against goldenObfuscate.
func TestGoldenObfuscateResponses(t *testing.T) {
	srv := newExpServer(4, 2)
	exp := srv.solveFn
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec, owner bool) (*entry, error) {
		e, err := exp(ctx, spec, owner)
		if err == nil && spec.Epsilon == goldenDegradedEps {
			e.tier = serial.QualityIncumbent
		}
		return e, err
	}
	h := srv.Handler()
	steps := goldenSequence(t)

	var got []struct{ name, hash string }
	record := func(name string, parts ...string) {
		sum := sha256.Sum256([]byte(strings.Join(parts, "\n")))
		got = append(got, struct{ name, hash string }{name, hex.EncodeToString(sum[:])})
	}
	for _, st := range steps {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/obfuscate", bytes.NewReader(st.body)))
		if testing.Verbose() {
			body := rec.Body.String()
			if len(body) > 160 {
				body = body[:160] + "…"
			}
			t.Logf("%s: %d %s", st.name, rec.Code, body)
		}
		record(st.name, fmt.Sprint(rec.Code), rec.Header().Get("Content-Type"), rec.Body.String())
	}
	snap := srv.Stats()
	record("stats", fmt.Sprintf("hits=%d misses=%d solves=%d degraded=%d", snap.CacheHits, snap.CacheMisses, snap.Solves, snap.DegradedServes))

	want := map[string]string{}
	for _, row := range goldenObfuscate {
		want[row.name] = row.hash
	}
	var table strings.Builder
	bad := len(goldenObfuscate) != len(got)
	for _, row := range got {
		fmt.Fprintf(&table, "\t{%q, %q},\n", row.name, row.hash)
		if want[row.name] != row.hash {
			bad = true
			t.Errorf("%s: response hash %s, want %s", row.name, row.hash, want[row.name])
		}
	}
	if bad {
		t.Errorf("golden table does not match; the sequence produced:\n%s", table.String())
	}
}
