package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/faultinject"
	"repro/internal/retryhttp"
	"repro/internal/serial"
)

// Fleet mode: N vlpserved processes share one snapshot directory, with
// the store's lease protocol electing a single durable writer. The
// leader behaves like a solo server (solves, checkpoints, persists —
// every commit fenced by its lease token). Followers never cold-solve:
// a miss is answered read-through from the store, by proxying the solve
// to the leader, or from the exponential-fallback rung — so follower
// capacity is pure serving capacity, and the solver's CPU budget lives
// on exactly one process. Every mechanism a follower serves still
// passes the EnforceGeoI repair gate locally (entryFromStore,
// fallbackEntry); fleet membership never weakens the Geo-I guarantee.
//
// Failover: the lease loop renews at Poll cadence; when the leader dies
// its lease expires within TTL and the first follower tick thereafter
// wins the election and bumps the fencing token. Promotion starts no
// solve: the first request for a spec the dead leader was solving
// misses like any other, and its solve resumes from that network's
// pool checkpoint (storedPool). A demoted leader discovers the loss at
// its next renew (or its next commit, which the stale fence rejects),
// abandons checkpointing cleanly, and keeps serving as a follower.

// Server lease states reported as /stats lease_state.
const (
	leaseSolo int32 = iota // no fleet configured
	leaseFollower
	leaseLeader
)

// refreshLoadCap bounds how many delta entries one refresh tick pulls
// into the local cache, keeping the lease loop's latency flat while a
// large store converges over several ticks.
const refreshLoadCap = 8

// FaultSiteFleetProxy sits immediately before the follower→leader
// proxy POST: arming it blackholes the proxy rung of a real follower
// process without any network machinery, which is how the chaos
// harness forces the circuit breaker open.
const FaultSiteFleetProxy = "server/fleet/proxy"

// FleetConfig configures fleet membership (Config.Fleet). The store in
// Config.Store must be opened with store.OpenFleet so commits are
// fenced.
type FleetConfig struct {
	// Instance names this process in the lease record (default
	// "vlpserved-<pid>"). Must be unique within the fleet.
	Instance string
	// Advertise is the base URL (scheme://host:port) followers use to
	// proxy solves to this process when it leads. Empty disables
	// proxying toward this instance: followers degrade straight to the
	// fallback rung.
	Advertise string
	// TTL is the lease duration (default 10s): a dead leader is
	// replaced within one TTL.
	TTL time.Duration
	// Poll is the heartbeat/refresh cadence (default TTL/3): leaders
	// renew, followers refresh from the store and stand for election.
	Poll time.Duration
}

// The follower→leader proxy rung. The proxy client retries once with
// a short jittered backoff so a follower miss fails over to the
// fallback rung quickly, and bounds each request at TTL/2 so a stalled
// (SIGSTOP'd, partitioned) leader cannot hang a follower past its own
// failover horizon. proxyFailuresToTrip consecutive proxy failures
// open the circuit breaker: while open, follower misses skip the proxy
// rung entirely and degrade straight to the ε/2 fallback. It stays open
// for one TTL before letting a probe through — by then a failover has
// either produced a reachable leader or nothing has changed.
const proxyFailuresToTrip = 3

func newProxyClient(ttl time.Duration) *retryhttp.Client {
	return &retryhttp.Client{
		HTTP:        &http.Client{Timeout: ttl / 2},
		MaxAttempts: 2,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    time.Second,
	}
}

func (f *FleetConfig) withDefaults() *FleetConfig {
	g := *f
	if g.TTL <= 0 {
		g.TTL = 10 * time.Second
	}
	if g.Poll <= 0 {
		g.Poll = g.TTL / 3
	}
	if g.Instance == "" {
		g.Instance = fmt.Sprintf("vlpserved-%d", os.Getpid())
	}
	return &g
}

// startFleet stands the process up as leader (first TryAcquire wins)
// or follower, then runs the lease loop until shutdown. Called from
// New after the solver plumbing is ready.
func (s *Server) startFleet() {
	fc := s.cfg.Fleet
	if _, ok, err := s.store.TryAcquire(fc.Instance, fc.Advertise, fc.TTL); err == nil && ok {
		s.promote()
	} else {
		s.role.Store(leaseFollower)
		s.refreshFromStore()
		s.refreshLeaderHint()
	}
	s.bg.Add(1)
	go s.fleetLoop()
}

// fleetLoop is the heartbeat: renew when leading, refresh + stand for
// election when following. It exits at shutdown (releasing the lease
// so a peer takes over immediately rather than after a TTL).
func (s *Server) fleetLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.cfg.Fleet.Poll)
	defer t.Stop()
	for {
		select {
		case <-s.fleetStop:
			s.resignLease()
			return
		case <-s.ctx.Done():
			s.resignLease()
			return
		case <-t.C:
			s.fleetTick()
		}
	}
}

// fleetTick is one heartbeat. Exported behavior lives in /stats:
// lease_renewals counts successful renews, lease_losses demotions.
func (s *Server) fleetTick() {
	fc := s.cfg.Fleet
	if s.role.Load() == leaseLeader {
		// Renewing with the store's fence couples the two loss signals:
		// a stale-fence commit clears the fence, which fails the next
		// renew, which demotes — no separate bookkeeping to drift.
		ok, err := s.store.Renew(fc.Instance, s.store.Fence(), fc.TTL)
		switch {
		case err != nil:
			// Transient lease I/O: keep leading — fenced commits stay
			// safe even if the lease lapses — and retry next tick.
		case ok:
			s.stats.leaseRenewed()
		default:
			s.demote()
		}
		return
	}
	s.refreshFromStore()
	if _, ok, err := s.store.TryAcquire(fc.Instance, fc.Advertise, fc.TTL); err == nil && ok {
		s.promote()
	} else {
		s.refreshLeaderHint()
	}
}

// promote installs this process as leader: solves, upgrades and
// checkpoints are on. The fence lives in the store, the role here.
func (s *Server) promote() {
	s.role.Store(leaseLeader)
	s.leaderURL.Store("")
	s.scanStore()
}

// demote flips a leader that lost its lease into a follower. In-flight
// solves keep running — their entries still serve from local memory —
// but persists and checkpoints are abandoned cleanly: the cleared
// fence (and the stale-fence check behind it) turns every commit into
// a quarantined no-op instead of a race with the new leader.
func (s *Server) demote() {
	if s.role.CompareAndSwap(leaseLeader, leaseFollower) {
		s.stats.leaseLost()
	}
}

// resignLease releases the lease on clean shutdown so a peer is
// elected at its next tick instead of waiting out the TTL.
func (s *Server) resignLease() {
	if s.role.Load() == leaseLeader {
		//lint:ignore errflow best-effort courtesy on shutdown: if the release fails the TTL expires the lease anyway, and the process is exiting with nowhere to route the error
		_ = s.store.Release(s.cfg.Fleet.Instance, s.store.Fence())
	}
}

// isFollower reports whether cold solves are forbidden right now.
func (s *Server) isFollower() bool { return s.role.Load() == leaseFollower }

// refreshLeaderHint re-reads the lease and caches the leaseholder's
// advertise URL for the X-VLP-Leader response header. Runs on the lease
// loop's cadence (never on the request path); a missing, expired or
// self-owned lease clears the hint.
func (s *Server) refreshLeaderHint() {
	url := ""
	if rec, ok, err := s.store.LeaseHolder(); err == nil && ok && rec.Owner != s.cfg.Fleet.Instance && !rec.Expired(time.Now()) {
		url = rec.URL
	}
	s.leaderURL.Store(url)
}

// setLeaderHeader stamps X-VLP-Leader with the leaseholder's advertise
// URL on follower responses, so a client that wants the solving tier —
// rather than a follower's read-through or fallback rung — can point
// its next request at the leader directly.
func (s *Server) setLeaderHeader(w http.ResponseWriter) {
	if !s.isFollower() {
		return
	}
	if url, _ := s.leaderURL.Load().(string); url != "" {
		w.Header().Set("X-VLP-Leader", url)
	}
}

// leaseState names the current role for /stats.
func (s *Server) leaseState() string {
	switch s.role.Load() {
	case leaseLeader:
		return "leader"
	case leaseFollower:
		return "follower"
	default:
		return "solo"
	}
}

// refreshFromStore is the follower's read-through refresh: one cheap
// delta Scan (unchanged files are never re-read), with new or upgraded
// entries pulled into the local cache while there is room — so a
// follower converges on the leader's solves without a request having
// to miss first. Bounded by refreshLoadCap per tick.
func (s *Server) refreshFromStore() {
	rep, err := s.store.Scan()
	if err != nil {
		return
	}
	if rep.Quarantined > 0 {
		s.stats.scanQuarantined(rep.Quarantined)
	}
	loads := 0
	for _, key := range rep.Delta {
		if loads >= refreshLoadCap {
			break
		}
		if _, cached := s.cache.get(key); !cached && s.cache.len() >= s.cfg.CacheSize {
			// Never evict a hot mechanism for speculative warmth; an
			// upgrade of something already cached is always taken.
			continue
		}
		if warm := s.entryFromStore(key, nil); warm != nil {
			evicted := s.cache.add(key, warm)
			s.stats.refreshLoaded(evicted)
			loads++
		}
	}
}

// followerEntry is the follower's cache/store-miss path: never cold-
// solve (the solve pool is the leader's). Proxy the solve to the
// leaseholder and read the committed result back through the store —
// re-validated by the local EnforceGeoI gate like any snapshot — or
// degrade to the exponential-fallback rung, served locally and
// deliberately not cached so the next miss re-escalates to the leader.
func (s *Server) followerEntry(ctx context.Context, key string, spec *serial.SolveSpec) (*entry, error) {
	if s.proxySolve(ctx, spec) {
		if warm := s.entryFromStore(key, spec); warm != nil {
			evicted := s.cache.add(key, warm)
			s.stats.proxied(evicted)
			return warm, nil
		}
	}
	pr, _, _, err := s.problemFor(spec)
	if err != nil {
		return nil, err
	}
	e, err := s.fallbackEntry(pr)
	if err != nil {
		return nil, err
	}
	e.key = key
	return e, nil
}

// proxySolve asks the current leaseholder to solve spec, reporting
// whether a committed result should now exist in the store. It refuses
// to proxy to itself (a demoted leader may still be on file briefly)
// and treats every non-2xx or transport failure as "leader
// unavailable" — the caller degrades instead of erroring.
//
// The attempt is gated by the proxy circuit breaker: lease-lookup
// refusals don't count (no leader on file is not a leader failure), but
// every admitted attempt reports its outcome, so a blackholed leader
// opens the breaker after proxyFailuresToTrip misses and subsequent
// requests skip the retry budget entirely.
func (s *Server) proxySolve(ctx context.Context, spec *serial.SolveSpec) bool {
	fc := s.cfg.Fleet
	rec, ok, err := s.store.LeaseHolder()
	if err != nil || !ok || rec.Owner == "" || rec.URL == "" || rec.Owner == fc.Instance {
		return false
	}
	if rec.Expired(time.Now()) {
		return false
	}
	if !s.proxyBreaker.allow() {
		return false
	}
	reached := false
	if ferr := faultinject.At(FaultSiteFleetProxy); ferr == nil {
		status, perr := s.proxy.PostJSON(ctx, rec.URL+"/solve", spec, nil)
		reached = perr == nil && status >= 200 && status < 300
	}
	s.proxyBreaker.result(reached)
	return reached
}
