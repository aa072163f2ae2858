package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serial"
	"repro/internal/store"
)

func fleetStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.OpenFleet(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// swapHandler lets a test advertise an httptest URL before the server
// behind it exists (FleetConfig.Advertise is needed at New time).
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok && h != nil {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "leader not up", http.StatusServiceUnavailable)
}

// TestSoloLeaseState: without a fleet config the server stays in solo
// mode — full solver rights, no lease, fence 0.
func TestSoloLeaseState(t *testing.T) {
	srv := New(context.Background(), Config{DisableUpgrade: true})
	snap := srv.Stats()
	if snap.LeaseState != "solo" || snap.FenceToken != 0 {
		t.Fatalf("lease_state=%q fence_token=%d, want solo/0", snap.LeaseState, snap.FenceToken)
	}
	if srv.isFollower() {
		t.Fatal("solo server must keep cold-solve rights")
	}
}

// TestFleetRolesAndCleanHandover: the first member of a fleet leads,
// the second follows, and a clean shutdown hands leadership over at the
// next poll (no TTL wait) with a bumped fencing token.
func TestFleetRolesAndCleanHandover(t *testing.T) {
	dir := t.TempDir()
	srvA := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "a", TTL: 5 * time.Second, Poll: 50 * time.Millisecond},
	})
	if snap := srvA.Stats(); snap.LeaseState != "leader" || snap.FenceToken != 1 {
		t.Fatalf("first member: lease_state=%q fence_token=%d, want leader/1", snap.LeaseState, snap.FenceToken)
	}
	srvB := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "b", TTL: 5 * time.Second, Poll: 50 * time.Millisecond},
	})
	defer srvB.Shutdown(context.Background())
	if snap := srvB.Stats(); snap.LeaseState != "follower" || snap.FenceToken != 0 {
		t.Fatalf("second member: lease_state=%q fence_token=%d, want follower/0", snap.LeaseState, snap.FenceToken)
	}
	// The leader keeps renewing while it lives.
	waitFor(t, 5*time.Second, func() bool { return srvA.Stats().LeaseRenewals >= 2 })

	if err := srvA.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Clean shutdown released the lease: the follower wins the next
	// election tick without waiting out the TTL, with token 1+1.
	waitFor(t, 5*time.Second, func() bool { return srvB.Stats().LeaseState == "leader" })
	if snap := srvB.Stats(); snap.FenceToken != 2 {
		t.Fatalf("handover fence_token = %d, want 2", snap.FenceToken)
	}
	rec, ok, err := srvB.store.LeaseHolder()
	if err != nil || !ok || rec.Owner != "b" || rec.Token != 2 {
		t.Fatalf("lease record after handover: %+v ok=%v err=%v, want owner b token 2", rec, ok, err)
	}
}

// TestFleetFollowerFallbackRung: with the lease held by an unreachable
// peer, a follower miss degrades to the locally built ε/2 exponential
// rung — served, Geo-I-verified, counted as degraded, and deliberately
// not cached so the next miss re-escalates toward the leader.
func TestFleetFollowerFallbackRung(t *testing.T) {
	dir := t.TempDir()
	// A dead advertised URL: connection refused, so the proxy attempts
	// fail fast and the follower walks down to the fallback rung.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	holder := fleetStore(t, dir)
	if _, ok, err := holder.TryAcquire("ext", deadURL, time.Hour); err != nil || !ok {
		t.Fatalf("planting external lease: ok=%v err=%v", ok, err)
	}

	srv := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "b", TTL: time.Hour, Poll: 10 * time.Second},
	})
	defer srv.Shutdown(context.Background())
	if snap := srv.Stats(); snap.LeaseState != "follower" {
		t.Fatalf("lease_state = %q, want follower", snap.LeaseState)
	}
	spec := testSpecs(t, 1)[0]
	for i := 0; i < 2; i++ {
		e, cached, err := srv.mechanismFor(context.Background(), spec)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if cached {
			t.Fatalf("request %d served from cache: fallback entries must not stick", i)
		}
		if e.tier != serial.QualityFallback {
			t.Fatalf("request %d tier %q, want fallback", i, e.tier)
		}
		assertServable(t, e)
	}
	snap := srv.Stats()
	if snap.Solves != 0 || snap.StoreWrites != 0 {
		t.Fatalf("follower ran solves=%d store_writes=%d, want 0/0", snap.Solves, snap.StoreWrites)
	}
	if snap.CacheMisses != 2 || snap.DegradedServes != 2 {
		t.Fatalf("misses=%d degraded=%d, want 2/2 (fallback not cached)", snap.CacheMisses, snap.DegradedServes)
	}
	if snap.ProxiedSolves != 0 {
		t.Fatalf("proxied_solves = %d, want 0 with the leader unreachable", snap.ProxiedSolves)
	}
}

// TestFleetFollowerProxiesToLeader: a follower miss is proxied to the
// advertised leader, the leader's committed snapshot is read back
// through the store (re-passing the local EnforceGeoI gate), cached,
// and counted in proxied_solves. The follower itself never solves and
// never writes.
func TestFleetFollowerProxiesToLeader(t *testing.T) {
	dir := t.TempDir()
	sw := &swapHandler{}
	ts := httptest.NewServer(sw)
	defer ts.Close()

	leader := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "a", Advertise: ts.URL, TTL: 5 * time.Second, Poll: 50 * time.Millisecond},
	})
	defer leader.Shutdown(context.Background())
	sw.h.Store(leader.Handler())
	if snap := leader.Stats(); snap.LeaseState != "leader" {
		t.Fatalf("leader lease_state = %q", snap.LeaseState)
	}

	follower := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "b", TTL: 5 * time.Second, Poll: 50 * time.Millisecond},
	})
	defer follower.Shutdown(context.Background())

	spec := testSpecs(t, 1)[0]
	e, cached, err := follower.mechanismFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first follower request reported a cache hit")
	}
	if e.tier != serial.QualityOptimal {
		t.Fatalf("proxied entry tier %q, want optimal (leader solved it)", e.tier)
	}
	assertServable(t, e)

	fsnap := follower.Stats()
	if fsnap.ProxiedSolves != 1 || fsnap.Solves != 0 || fsnap.StoreWrites != 0 {
		t.Fatalf("follower proxied=%d solves=%d store_writes=%d, want 1/0/0",
			fsnap.ProxiedSolves, fsnap.Solves, fsnap.StoreWrites)
	}
	lsnap := leader.Stats()
	if lsnap.Solves != 1 || lsnap.StoreWrites != 1 {
		t.Fatalf("leader solves=%d store_writes=%d, want 1/1", lsnap.Solves, lsnap.StoreWrites)
	}
	// The committed snapshot carries the leader's fencing token.
	se, err := leader.store.LoadEntry(spec.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if se.Fence != 1 {
		t.Fatalf("snapshot fence = %d, want the leader's token 1", se.Fence)
	}
	// The proxied entry stuck in the follower's cache: next request hits.
	if _, cached, err := follower.mechanismFor(context.Background(), spec); err != nil || !cached {
		t.Fatalf("second follower request: cached=%v err=%v, want cache hit", cached, err)
	}
}

// TestFleetRefreshWarmsFollower: the follower's refresh loop pulls the
// leader's commits into the local cache before any request misses, so a
// follower answers warm without proxying.
func TestFleetRefreshWarmsFollower(t *testing.T) {
	dir := t.TempDir()
	leader := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "a", TTL: 5 * time.Second, Poll: 50 * time.Millisecond},
	})
	defer leader.Shutdown(context.Background())
	spec := testSpecs(t, 1)[0]
	if _, _, err := leader.mechanismFor(context.Background(), spec); err != nil {
		t.Fatal(err)
	}

	follower := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "b", TTL: 5 * time.Second, Poll: 50 * time.Millisecond},
	})
	defer follower.Shutdown(context.Background())
	waitFor(t, 5*time.Second, func() bool { return follower.Stats().RefreshLoads >= 1 })

	e, cached, err := follower.mechanismFor(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("refreshed entry not served from the follower's cache")
	}
	if e.tier != serial.QualityOptimal {
		t.Fatalf("refreshed entry tier %q, want optimal", e.tier)
	}
	assertServable(t, e)
	snap := follower.Stats()
	if snap.Solves != 0 || snap.ProxiedSolves != 0 || snap.StoreWrites != 0 {
		t.Fatalf("warm follower solves=%d proxied=%d store_writes=%d, want 0/0/0",
			snap.Solves, snap.ProxiedSolves, snap.StoreWrites)
	}
}

// TestFleetStaleFenceDemotesLeader exercises the coupled loss signals:
// a commit that fails the fence check is quarantined (not crashed on,
// not visible), the cleared fence fails the next renew, the leader
// demotes — and, still holding the on-file lease, re-elects itself one
// tick later with its fence restored. Durability heals on the next
// commit.
func TestFleetStaleFenceDemotesLeader(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	srv := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "a", TTL: 5 * time.Second, Poll: 50 * time.Millisecond},
	})
	defer srv.Shutdown(context.Background())
	ctr := &solveCounter{counts: map[string]int{}, tb: t}
	ctr.install(srv)
	spec := testSpecs(t, 1)[0]

	faultinject.Set(store.FaultSiteStaleFence, faultinject.Fault{Err: errors.New("injected fence check"), Times: 1})
	e, _, err := srv.mechanismFor(context.Background(), spec)
	if err != nil {
		t.Fatalf("stale-fence commit must not surface to the client: %v", err)
	}
	assertServable(t, e)
	snap := srv.Stats()
	if snap.StoreWrites != 0 {
		t.Fatalf("store_writes = %d after a fenced-out commit, want 0", snap.StoreWrites)
	}
	if snap.FenceToken != 0 {
		t.Fatalf("fence_token = %d after a fenced-out commit, want 0 (cleared)", snap.FenceToken)
	}
	if _, err := srv.store.LoadEntry(spec.Digest()); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("fenced-out snapshot became visible: %v", err)
	}

	// The cleared fence fails the next heartbeat renew: demotion.
	waitFor(t, 5*time.Second, func() bool { return srv.Stats().LeaseLosses >= 1 })
	// The lease file still names us, so the follower tick after that
	// re-elects self: fence restored, commit rights back.
	waitFor(t, 5*time.Second, func() bool {
		s := srv.Stats()
		return s.LeaseState == "leader" && s.FenceToken == 1
	})
	srv.cache = newMechCache(srv.cfg.CacheSize)
	if _, _, err := srv.mechanismFor(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Stats(); snap.StoreWrites != 1 {
		t.Fatalf("store_writes = %d after fence restored, want 1", snap.StoreWrites)
	}
	se, err := srv.store.LoadEntry(spec.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if se.Fence != 1 {
		t.Fatalf("healed snapshot fence = %d, want 1", se.Fence)
	}
}

// TestFleetFailoverRecoversCheckpoint: a leader that dies without
// releasing (its release I/O faulted) leaves the lease to expire; the
// follower wins the election within one TTL and bumps the token. Its
// promotion starts no solve; its first request for the dead leader's
// interrupted spec resumes from that network's pool checkpoint.
func TestFleetFailoverRecoversCheckpoint(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	srvA := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "a", TTL: 400 * time.Millisecond, Poll: 100 * time.Millisecond},
	})
	srvB := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "b", TTL: 400 * time.Millisecond, Poll: 50 * time.Millisecond},
	})
	defer srvB.Shutdown(context.Background())
	if snap := srvB.Stats(); snap.LeaseState != "follower" || snap.Solves != 0 {
		t.Fatalf("pre-failover follower: %+v", snap)
	}

	// The "dead" leader's unfinished work: a pool checkpoint,
	// committed through a solo (unfenced) handle standing in for the
	// leader's own fenced write.
	spec := testSpecs(t, 2)[1]
	solo, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck := &serial.StoredCheckpoint{Spec: *spec, Rounds: 1, State: *mustState(t, spec).Snapshot()}
	if err := solo.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}

	// Kill the leader dirty: its lease release faults, so the record
	// stays on file and the follower must wait out the TTL.
	faultinject.Set(store.FaultSiteLeaseRelease, faultinject.Fault{Err: errors.New("injected release loss"), Times: 1})
	if err := srvA.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := srvB.store.LeaseHolder()
	if err != nil || !ok || rec.Owner != "a" {
		t.Fatalf("dirty death released the lease anyway: %+v ok=%v err=%v", rec, ok, err)
	}

	waitFor(t, 5*time.Second, func() bool { return srvB.Stats().LeaseState == "leader" })
	if snap := srvB.Stats(); snap.FenceToken != 2 {
		t.Fatalf("failover fence_token = %d, want 2 (takeover bumps)", snap.FenceToken)
	}
	if rec, _, _ := srvB.store.LeaseHolder(); rec.Owner != "b" || rec.Token != 2 {
		t.Fatalf("lease record after failover: %+v, want owner b token 2", rec)
	}
	if snap := srvB.Stats(); snap.Solves != 0 || snap.DonorSolves != 0 {
		t.Fatalf("promotion solved: solves=%d donor_solves=%d, want 0/0", snap.Solves, snap.DonorSolves)
	}
	e := solveVia(t, srvB, spec)
	if e.tier != serial.QualityOptimal {
		t.Fatalf("recovered solve tier %q, want optimal", e.tier)
	}
	if snap := srvB.Stats(); snap.Solves != 1 || snap.DonorSolves != 1 {
		t.Fatalf("solves=%d donor_solves=%d, want 1/1 (resumed from the pool checkpoint)", snap.Solves, snap.DonorSolves)
	}
}

// TestFleetFollowerLeaderHeader: follower responses carry the
// leaseholder's advertise URL in X-VLP-Leader so clients can reach the
// solving tier directly; the leader (and a solo server) never sets it.
func TestFleetFollowerLeaderHeader(t *testing.T) {
	dir := t.TempDir()
	sw := &swapHandler{}
	ts := httptest.NewServer(sw)
	defer ts.Close()

	leader := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "a", Advertise: ts.URL, TTL: 5 * time.Second, Poll: 50 * time.Millisecond},
	})
	defer leader.Shutdown(context.Background())
	sw.h.Store(leader.Handler())

	follower := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "b", TTL: 5 * time.Second, Poll: 50 * time.Millisecond},
	})
	defer follower.Shutdown(context.Background())
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()

	spec := testSpecs(t, 1)[0]
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	post := func(ts *httptest.Server) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	resp := post(fts)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower solve answered %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-VLP-Leader"); got != ts.URL {
		t.Fatalf("follower X-VLP-Leader = %q, want %q", got, ts.URL)
	}
	// The leader must not point clients at itself.
	if resp := post(ts); resp.Header.Get("X-VLP-Leader") != "" {
		t.Fatalf("leader set X-VLP-Leader = %q", resp.Header.Get("X-VLP-Leader"))
	}

	solo := New(context.Background(), Config{DisableUpgrade: true})
	defer solo.Shutdown(context.Background())
	sts := httptest.NewServer(solo.Handler())
	defer sts.Close()
	if resp := post(sts); resp.Header.Get("X-VLP-Leader") != "" {
		t.Fatalf("solo server set X-VLP-Leader = %q", resp.Header.Get("X-VLP-Leader"))
	}
}

// TestFleetProxyBreakerTrips: the circuit breaker on the proxy rung,
// end to end against a real follower. The leaseholder is blackholed at
// the FaultSiteFleetProxy injection point for exactly
// proxyFailuresToTrip attempts; after the trip, follower misses must
// reach the ε/2 rung without touching the leader at all — the
// advertised URL is live and counting, and it must stay at zero hits
// while the breaker is open. Forcing the cooldown to have elapsed then
// admits a single half-open probe, which succeeds and closes the
// breaker. Run under -race in ci.
func TestFleetProxyBreakerTrips(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()

	// A live "leader" that counts proxy arrivals and answers 200 —
	// reachable the whole time, so any hit while the breaker is open is
	// a breaker bug, not a network accident.
	var leaderHits atomic.Int64
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		leaderHits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer leader.Close()

	holder := fleetStore(t, dir)
	if _, ok, err := holder.TryAcquire("ext", leader.URL, time.Hour); err != nil || !ok {
		t.Fatalf("planting external lease: ok=%v err=%v", ok, err)
	}

	const threshold = proxyFailuresToTrip
	srv := New(context.Background(), Config{
		Store:          fleetStore(t, dir),
		DisableUpgrade: true,
		Fleet:          &FleetConfig{Instance: "b", TTL: time.Hour, Poll: 10 * time.Second},
	})
	defer srv.Shutdown(context.Background())
	if snap := srv.Stats(); snap.LeaseState != "follower" || snap.ProxyBreakerState != "closed" {
		t.Fatalf("setup: lease_state=%q breaker=%q", snap.LeaseState, snap.ProxyBreakerState)
	}

	// Blackhole exactly the first `threshold` proxy attempts.
	faultinject.Set(FaultSiteFleetProxy, faultinject.Fault{
		Err: errors.New("injected partition"), Times: threshold,
	})

	spec := testSpecs(t, 1)[0]
	serveMiss := func(i int) {
		t.Helper()
		e, cached, err := srv.mechanismFor(context.Background(), spec)
		if err != nil || cached {
			t.Fatalf("miss %d: cached=%v err=%v", i, cached, err)
		}
		if e.tier != serial.QualityFallback {
			t.Fatalf("miss %d: tier %q, want fallback", i, e.tier)
		}
		assertServable(t, e)
	}
	for i := 0; i < threshold; i++ {
		serveMiss(i)
	}
	snap := srv.Stats()
	if snap.ProxyBreakerState != "open" || snap.ProxyBreakerTrips != 1 {
		t.Fatalf("after %d blackholed attempts: breaker=%q trips=%d, want open/1",
			threshold, snap.ProxyBreakerState, snap.ProxyBreakerTrips)
	}
	if leaderHits.Load() != 0 {
		t.Fatalf("leader hit %d times through the injected blackhole", leaderHits.Load())
	}

	// Open breaker: misses degrade immediately. The fault is exhausted,
	// so any proxy attempt WOULD succeed — reaching the leader now can
	// only mean the breaker failed to gate.
	for i := 0; i < 5; i++ {
		serveMiss(threshold + i)
	}
	if leaderHits.Load() != 0 {
		t.Fatalf("open breaker let %d requests through", leaderHits.Load())
	}

	// Cooldown "elapses": backdate the trip. The next miss is admitted
	// as the half-open probe, reaches the live leader, and closes the
	// breaker. (The probe 200 has no store entry behind it, so the
	// request itself still serves the fallback rung.)
	srv.proxyBreaker.mu.Lock()
	srv.proxyBreaker.openedAt = time.Now().Add(-2 * time.Hour)
	srv.proxyBreaker.mu.Unlock()
	serveMiss(99)
	if hits := leaderHits.Load(); hits != 1 {
		t.Fatalf("half-open probe hit the leader %d times, want 1", hits)
	}
	snap = srv.Stats()
	if snap.ProxyBreakerState != "closed" || snap.ProxyBreakerTrips != 1 {
		t.Fatalf("after probe: breaker=%q trips=%d, want closed/1", snap.ProxyBreakerState, snap.ProxyBreakerTrips)
	}
	if snap.Solves != 0 || snap.StoreWrites != 0 {
		t.Fatalf("follower solved/wrote: %d/%d", snap.Solves, snap.StoreWrites)
	}
}
