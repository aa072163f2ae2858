package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/serial"
)

// newExpServer returns a server whose solves are the closed-form
// exponential mechanism, with no background upgrades.
func newExpServer(cacheSize, maxSolves int) *Server {
	srv := New(context.Background(), Config{CacheSize: cacheSize, MaxSolves: maxSolves, Seed: 11, DisableUpgrade: true})
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec, owner bool) (*entry, error) {
		pr, err := spec.Problem()
		if err != nil {
			return nil, err
		}
		m := pr.ExponentialMechanism()
		return srv.newEntry(pr, m, pr.ETDD(m), 0, serial.QualityOptimal), nil
	}
	return srv
}

// hotRequest renders an /obfuscate body of n random locations on a 2×3
// grid for the spec with the given epsilon.
func hotRequest(tb testing.TB, eps float64, n int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(4))
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 3, Spacing: 0.3})
	req := serial.ObfuscateRequest{SolveSpec: serial.SolveSpec{Network: serial.FromGraph(g), Delta: 0.2, Epsilon: eps}}
	for i := 0; i < n; i++ {
		road := rng.Intn(g.NumEdges())
		req.Locations = append(req.Locations, serial.Loc{Road: road, FromStart: rng.Float64() * g.Edge(roadnet.EdgeID(road)).Weight})
	}
	body, err := json.Marshal(&req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// reusableBody is a request body the test can rewind without
// allocating.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// countingWriter is a ResponseWriter that keeps only the status and the
// byte count.
type countingWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *countingWriter) Header() http.Header { return w.h }
func (w *countingWriter) WriteHeader(s int)   { w.status = s }
func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// TestObfuscateCachedAllocs pins the allocations of a cached /obfuscate
// of 16 locations through Handler(): the MaxBytesReader and the decoded
// batch. The encoding/json path this replaced took 36.
func TestObfuscateCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 2
	h := newExpServer(4, 1).Handler()
	body := hotRequest(t, 5, 16)
	r := httptest.NewRequest(http.MethodPost, "/obfuscate", nil)
	var rb reusableBody
	w := &countingWriter{h: http.Header{}}
	serve := func() {
		rb.Reset(body)
		r.Body = &rb
		w.status, w.n = 0, 0
		h.ServeHTTP(w, r)
	}
	serve() // cold solve; records the form
	serve()
	if w.status != http.StatusOK || w.n == 0 {
		t.Fatalf("warm-up answered %d with %d bytes", w.status, w.n)
	}
	allocs := testing.AllocsPerRun(100, serve)
	if w.status != http.StatusOK {
		t.Fatalf("cached request answered %d", w.status)
	}
	if allocs > budget {
		t.Fatalf("cached /obfuscate allocates %v objects per request, want ≤ %d", allocs, budget)
	}
}

// TestObfuscateFormIndex walks the form index through its life cycle:
// recorded after a 200 only, one form per key (the first), not recorded
// for a body the splitter refuses, and dropped with its key on eviction.
func TestObfuscateFormIndex(t *testing.T) {
	srv := newExpServer(2, 1)
	h := srv.Handler()
	post := func(body []byte) serial.ObfuscateResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/obfuscate", bytes.NewReader(body)))
		var resp serial.ObfuscateResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
		}
		return resp
	}
	forms := func() int {
		srv.cache.mu.Lock()
		defer srv.cache.mu.Unlock()
		if len(srv.cache.forms) != len(srv.cache.formOf) {
			t.Fatalf("form index has %d forms but %d keys", len(srv.cache.forms), len(srv.cache.formOf))
		}
		return len(srv.cache.forms)
	}
	hits := func() uint64 { return srv.Stats().CacheHits }

	a := hotRequest(t, 5, 3)
	keyA := post(a).Key
	if forms() != 1 {
		t.Fatalf("after a cold 200: %d forms, want 1", forms())
	}
	if resp := post(hotRequest(t, 5, 7)); !resp.Cached || resp.Key != keyA || hits() != 1 {
		t.Fatalf("form hit answered %+v with %d hits", resp, hits())
	}
	indented := new(bytes.Buffer)
	if err := json.Indent(indented, a, "", " "); err != nil {
		t.Fatal(err)
	}
	if resp := post(indented.Bytes()); !resp.Cached || forms() != 1 {
		t.Fatalf("second form of a key: cached %v, %d forms; want the first form kept", resp.Cached, forms())
	}
	if resp := post(bytes.Replace(a, []byte(`"locations"`), []byte(`"Locations"`), 1)); !resp.Cached || forms() != 1 {
		t.Fatalf("case-variant key: cached %v, %d forms; want no form recorded", resp.Cached, forms())
	}

	b := hotRequest(t, 6, 2)
	bad := bytes.Replace(b, []byte(`"road":`), []byte(`"road":99`), 1)
	if post(bad).Key != "" || srv.cache.len() != 2 || forms() != 1 {
		t.Fatalf("a 400 for a cached key recorded a form: %d forms", forms())
	}
	post(b)
	if forms() != 2 {
		t.Fatalf("after B's 200: %d forms, want 2", forms())
	}
	post(hotRequest(t, 7, 1)) // evicts A, the least recently used
	srv.cache.mu.Lock()
	_, aKept := srv.cache.formOf[keyA]
	srv.cache.mu.Unlock()
	if aKept || forms() != 2 {
		t.Fatalf("evicting A left its form: %d forms", forms())
	}
	if resp := post(a); resp.Cached || resp.Key != keyA || forms() != 2 {
		t.Fatalf("A after eviction: %+v with %d forms; want a miss that records A again", resp, forms())
	}
}

// TestObfuscateFormIndexConcurrent hammers form hits, misses and
// evictions from several goroutines (three specs over an LRU of two,
// with a solve slot per spec so no miss is shed): every answer must be a
// 200 for the key of the spec it carried.
func TestObfuscateFormIndexConcurrent(t *testing.T) {
	srv := newExpServer(2, 3)
	h := srv.Handler()
	bodies := [][]byte{hotRequest(t, 5, 4), hotRequest(t, 6, 4), hotRequest(t, 7, 4)}
	keys := make([]string, len(bodies))
	for i, body := range bodies {
		var req serial.ObfuscateRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		keys[i] = req.Digest()
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < 30; n++ {
				i := (c + n*(c%3+1)) % len(bodies)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/obfuscate", bytes.NewReader(bodies[i])))
				var resp serial.ObfuscateResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Key != keys[i] || len(resp.Locations) != 4 {
					t.Errorf("spec %d: %d %s", i, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if snap := srv.Stats(); snap.CacheHits+snap.CacheMisses != 8*30 {
		t.Errorf("%d hits + %d misses, want %d requests", snap.CacheHits, snap.CacheMisses, 8*30)
	}
}
