package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serial"
)

func TestMechCacheLRU(t *testing.T) {
	c := newMechCache(2)
	a, b, d := &entry{key: "a"}, &entry{key: "b"}, &entry{key: "d"}
	if ev := c.add("a", a); ev != 0 {
		t.Fatalf("evicted %d from empty cache", ev)
	}
	c.add("b", b)

	// Touch a so b becomes least recently used.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	if ev := c.add("d", d); ev != 1 {
		t.Fatalf("adding past capacity evicted %d entries, want 1", ev)
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used a should survive eviction")
	}
	if _, ok := c.get("d"); !ok {
		t.Fatal("d missing")
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}

	// entries() lists MRU-first.
	got := c.entries()
	if len(got) != 2 || got[0].key != "d" || got[1].key != "a" {
		keys := make([]string, len(got))
		for i, e := range got {
			keys[i] = e.key
		}
		t.Fatalf("entries order %v, want [d a]", keys)
	}

	// Re-adding an existing key refreshes in place without eviction.
	if ev := c.add("a", &entry{key: "a"}); ev != 0 {
		t.Fatalf("refresh evicted %d entries", ev)
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d after refresh, want 2", c.len())
	}
}

func TestSingleflightSharesOneCall(t *testing.T) {
	g := newGroup(new(atomic.Uint64), new(atomic.Int64))
	var calls atomic.Int64
	release := make(chan struct{})
	fn := func(context.Context) (*entry, error) {
		calls.Add(1)
		<-release
		return &entry{key: "x"}, nil
	}

	// Leader first, so the flight is registered before any follower runs.
	results := make(chan *entry, 8)
	collect := func() {
		e, err := g.do(context.Background(), "x", context.Background(), 0, fn)
		if err != nil {
			t.Error(err)
		}
		results <- e
	}
	go collect()
	waitFor(t, time.Second, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.m) == 1
	})

	// Followers join the registered flight; the flight cannot complete
	// until release closes, so none of them can become a second leader.
	var entered atomic.Int64
	for i := 0; i < 7; i++ {
		go func() {
			entered.Add(1)
			collect()
		}()
	}
	waitFor(t, time.Second, func() bool { return entered.Load() == 7 })
	time.Sleep(10 * time.Millisecond) // let the last follower reach do()
	close(release)

	for i := 0; i < 8; i++ {
		if e := <-results; e == nil || e.key != "x" {
			t.Fatal("waiter got wrong result")
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	g.wait()
}

func TestSingleflightFollowerHonoursContext(t *testing.T) {
	g := newGroup(new(atomic.Uint64), new(atomic.Int64))
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		_, _ = g.do(context.Background(), "k", context.Background(), 0, func(context.Context) (*entry, error) {
			<-release
			return &entry{key: "k"}, nil
		})
		close(leaderDone)
	}()
	// Give the leader time to register the flight.
	waitFor(t, time.Second, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.m) == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := g.do(ctx, "k", context.Background(), 0, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower got %v, want deadline exceeded", err)
	}
	close(release)
	<-leaderDone
	g.wait()
}

func TestHandlerValidation(t *testing.T) {
	srv := New(context.Background(), Config{})
	srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec, owner bool) (*entry, error) {
		return stubEntry(t), nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path, body string) int {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("/solve", "{not json"); code != http.StatusBadRequest {
		t.Errorf("bad JSON: got %d, want 400", code)
	}
	if code := post("/solve", `{"network":null,"delta":0.1,"epsilon":5}`); code != http.StatusBadRequest {
		t.Errorf("missing network: got %d, want 400", code)
	}
	if code := post("/obfuscate", `{"network":{"nodes":[],"edges":[]},"delta":0.1,"epsilon":5,"locations":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty network: got %d, want 400", code)
	}

	spec := testSpecs(t, 1)[0]
	req := serial.ObfuscateRequest{SolveSpec: *spec}
	body, _ := json.Marshal(req)
	if code := post("/obfuscate", string(body)); code != http.StatusBadRequest {
		t.Errorf("empty batch: got %d, want 400", code)
	}

	// Out-of-range locations must 400, not sample garbage.
	req.Locations = []serial.Loc{{Road: 9999, FromStart: 0}}
	body, _ = json.Marshal(req)
	if code := post("/obfuscate", string(body)); code != http.StatusBadRequest {
		t.Errorf("out-of-range road: got %d, want 400", code)
	}
	req.Locations = []serial.Loc{{Road: 0, FromStart: 1e9}}
	body, _ = json.Marshal(req)
	if code := post("/obfuscate", string(body)); code != http.StatusBadRequest {
		t.Errorf("from_start beyond road: got %d, want 400", code)
	}

	// GET /stats reflects the traffic above: the two location-validation
	// failures still resolved the mechanism, so the cache served them.
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Solves != 1 {
		t.Errorf("stats solves = %d, want 1", snap.Solves)
	}
	if snap.CacheLen != 1 || len(snap.Mechanisms) != 1 {
		t.Errorf("stats cache len = %d (%d mechanisms), want 1", snap.CacheLen, len(snap.Mechanisms))
	}
}
