package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/store"
)

// TestLoadSmoke is ci.sh's serving-path smoke gate: a short open-loop
// run against an in-process vlpserved (real solver, tiny grid) must
// produce a BENCH_serve.json that passes the checked-in Go schema check
// with zero responses outside {2xx, 429}. It uses real wall-clock
// dispatch, so it is skipped in -short mode (the deterministic
// scheduler tests live in internal/loadgen and always run).
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load run; internal/loadgen covers the scheduler deterministically")
	}

	srv := server.New(context.Background(), server.Config{
		CacheSize: 8,
		SolvePool: 2,
		ServePool: 16,
		SolveWait: 30 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	cfg := harnessConfig{
		base:     ts.URL,
		rate:     200,
		duration: 1500 * time.Millisecond,
		specs:    3,
		zipfS:    1.2,
		zipfV:    1,
		seed:     1,
		locs:     2,
		rows:     2,
		cols:     2,
		delta:    0.3,
		warmup:   true,
	}
	rep, err := run(context.Background(), cfg, wallClock{})
	if err != nil {
		t.Fatalf("harness run failed: %v", err)
	}
	rep.GeneratedUnix = time.Now().Unix()
	rep.GoVersion = runtime.Version()

	// Hard gate: any response outside {2xx, 429} fails the smoke run.
	if rep.ErrorRate != 0 {
		t.Fatalf("smoke run saw non-2xx/429 responses: error rate %v (report: %+v)", rep.ErrorRate, rep)
	}
	if rep.Requests < 200 {
		t.Fatalf("smoke run dispatched only %d requests; open-loop dispatcher fell behind badly", rep.Requests)
	}

	// The pool is pre-solved, so the steady state must serve overwhelmingly
	// from cache and the server must have solved each digest exactly once.
	if rep.RungMix.Cached == 0 {
		t.Fatalf("no cached serves after warmup; rung mix %+v", rep.RungMix)
	}
	if rep.Server == nil {
		t.Fatal("report missing server-side /stats counters")
	}
	if int(rep.Server.Solves) != cfg.specs {
		t.Fatalf("server solved %d times for a %d-digest warmed pool", rep.Server.Solves, cfg.specs)
	}

	// The emitted artifact must pass the same schema check ci.sh applies.
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := loadgen.ValidateJSON(data)
	if err != nil {
		t.Fatalf("emitted BENCH_serve.json failed the schema check: %v\n%s", err, data)
	}
	if back.Requests != rep.Requests {
		t.Fatalf("schema round trip changed request count: %d vs %d", back.Requests, rep.Requests)
	}
}

// swapHandler lets the test advertise an httptest URL before the server
// behind it exists (server.New needs FleetConfig.Advertise up front).
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok && h != nil {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "not up", http.StatusServiceUnavailable)
}

// TestLoadFleetSmoke is ci.sh's fleet serving gate: a -targets-style
// round-robin run over a two-member shared-store fleet (leader plus
// read-through follower) must stay inside {2xx, 429}, split requests
// across both members, and emit a report whose per_target breakdown
// passes the checked-in schema check.
func TestLoadFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock load run; internal/loadgen covers the scheduler deterministically")
	}

	dir := t.TempDir()
	fleetMember := func(name string) (*server.Server, *httptest.Server) {
		st, err := store.OpenFleet(dir)
		if err != nil {
			t.Fatal(err)
		}
		sw := &swapHandler{}
		ts := httptest.NewServer(sw)
		srv := server.New(context.Background(), server.Config{
			CacheSize: 8,
			SolvePool: 2,
			ServePool: 16,
			SolveWait: 30 * time.Second,
			Store:     st,
			Fleet: &server.FleetConfig{
				Instance:  name,
				Advertise: ts.URL,
				TTL:       5 * time.Second,
				Poll:      100 * time.Millisecond,
			},
		})
		sw.h.Store(srv.Handler())
		return srv, ts
	}
	// Started first, so it holds the lease; the loader's first target is
	// the one whose /stats the report archives.
	leader, tsLeader := fleetMember("leader")
	defer tsLeader.Close()
	defer leader.Shutdown(context.Background())
	follower, tsFollower := fleetMember("follower")
	defer tsFollower.Close()
	defer follower.Shutdown(context.Background())

	cfg := harnessConfig{
		targets:  []string{tsLeader.URL, tsFollower.URL},
		rate:     200,
		duration: 1500 * time.Millisecond,
		specs:    3,
		zipfS:    1.2,
		zipfV:    1,
		seed:     1,
		locs:     2,
		rows:     2,
		cols:     2,
		delta:    0.3,
		warmup:   true,
	}
	rep, err := run(context.Background(), cfg, wallClock{})
	if err != nil {
		t.Fatalf("fleet harness run failed: %v", err)
	}
	rep.GeneratedUnix = time.Now().Unix()
	rep.GoVersion = runtime.Version()

	if rep.ErrorRate != 0 {
		t.Fatalf("fleet smoke saw non-2xx/429 responses: error rate %v (report: %+v)", rep.ErrorRate, rep)
	}
	if rep.RungMix.Cached == 0 {
		t.Fatalf("no cached serves after fleet warmup; rung mix %+v", rep.RungMix)
	}
	if len(rep.PerTarget) != 2 {
		t.Fatalf("per_target has %d entries for a 2-member fleet", len(rep.PerTarget))
	}
	sum := 0
	for i, tg := range rep.PerTarget {
		if tg.URL != cfg.targets[i] {
			t.Fatalf("per_target[%d] url %q, want %q", i, tg.URL, cfg.targets[i])
		}
		if tg.Requests == 0 {
			t.Fatalf("round-robin starved target %s: %+v", tg.URL, rep.PerTarget)
		}
		if tg.ErrorRate != 0 {
			t.Fatalf("target %s saw errors: %+v", tg.URL, tg)
		}
		sum += tg.Requests
	}
	if sum != rep.Requests {
		t.Fatalf("per_target requests sum to %d, report has %d", sum, rep.Requests)
	}
	// Only the lease holder solves: the follower warmed read-through from
	// the shared store, so the leader's solve count covers the whole pool.
	if rep.Server == nil || int(rep.Server.Solves) != cfg.specs {
		t.Fatalf("leader counters %+v, want exactly %d solves", rep.Server, cfg.specs)
	}
	// The merged block sums both members; the follower never cold-solves,
	// so the fleet-wide solve count still equals the digest pool, while
	// cache traffic can only grow when the follower's slice is added in.
	if rep.FleetTotals == nil || int(rep.FleetTotals.Solves) != cfg.specs {
		t.Fatalf("fleet_totals %+v, want exactly %d solves fleet-wide", rep.FleetTotals, cfg.specs)
	}
	if rep.FleetTotals.CacheHits < rep.Server.CacheHits {
		t.Fatalf("fleet_totals cache_hits %d below the leader's %d", rep.FleetTotals.CacheHits, rep.Server.CacheHits)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadgen.ValidateJSON(data); err != nil {
		t.Fatalf("emitted fleet BENCH_serve.json failed the schema check: %v\n%s", err, data)
	}
}

// TestBuildWorkloadDeterministic: the digest pool and payloads are a
// pure function of the seed, so two harnesses with the same flags load
// identical request streams.
func TestBuildWorkloadDeterministic(t *testing.T) {
	cfg := harnessConfig{specs: 4, locs: 3, rows: 2, cols: 2, delta: 0.3, seed: 9}
	specsA, payloadsA, err := buildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specsB, payloadsB, err := buildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specsA {
		if specsA[i].Digest() != specsB[i].Digest() {
			t.Fatalf("spec %d digest diverged across identically seeded builds", i)
		}
		if string(payloadsA[i]) != string(payloadsB[i]) {
			t.Fatalf("payload %d diverged across identically seeded builds", i)
		}
	}
	for i := 1; i < len(specsA); i++ {
		if specsA[i].Digest() == specsA[0].Digest() {
			t.Fatalf("spec %d shares a digest with spec 0; pool is not %d distinct regions", i, len(specsA))
		}
	}
}
