package server

import (
	"sync/atomic"
	"time"
)

// stats aggregates service counters. The hot obfuscate path touches it
// once per request, so the struct is lock-free by contract: every field
// is a sync/atomic type and every access goes through atomic methods —
// an invariant vlplint's atomicstats analyzer enforces mechanically (a
// plain uint64 field here, even mutex-protected, fails ci.sh).
type stats struct {
	hits       atomic.Uint64
	misses     atomic.Uint64
	solves     atomic.Uint64
	rejected   atomic.Uint64 // backpressure 429s issued by the solve gate
	evicted    atomic.Uint64
	errors     atomic.Uint64 // failed solves
	nDegraded  atomic.Uint64 // serves from a non-optimal (incumbent/fallback) entry
	nCancelled atomic.Uint64 // solves that observed context cancellation/deadline
	nPanics    atomic.Uint64 // solver panics recovered into the ladder
	nUpgrades  atomic.Uint64 // degraded entries promoted by a background re-solve
	nDonor     atomic.Uint64 // solves resumed from their geometry's donor pool
	solveTotal atomic.Int64  // cumulative solve wall time, nanoseconds
	solveMax   atomic.Int64  // longest single solve, nanoseconds

	// Serving-tier counters. The depth fields are gauges (incremented on
	// entry, decremented on exit) rather than monotonic counters: the
	// flight group and the serve gate hold pointers to them and account
	// for their own populations.
	coalesced        atomic.Uint64 // requests that joined an in-flight solve instead of starting one
	admissionRejects atomic.Uint64 // serve-gate 429s (cached-path admission, distinct from solve-gate rejected)
	solveQueueDepth  atomic.Int64  // requests currently waiting on a cold-solve flight
	serveQueueDepth  atomic.Int64  // requests currently queued or sampling inside the serve gate

	// Durable-store counters.
	storeWrites  atomic.Uint64 // entry snapshots committed to disk
	storeLoads   atomic.Uint64 // cache misses answered from disk instead of a solve
	storeLoadErr atomic.Uint64 // snapshot loads that failed (corrupt or I/O)
	nQuarantined atomic.Uint64 // corrupt snapshots moved aside, scan + load paths
	ckptWrites   atomic.Uint64 // pool checkpoints committed to disk
	storeShedded atomic.Uint64 // durable writes failed or skipped while ENOSPC-degraded

	// Fleet counters (fleet.go). lease_state and fence_token in /stats
	// are not mirrored here: the server role flag and the store's fence
	// are their single sources of truth, passed into snapshot.
	leaseRenews  atomic.Uint64 // successful lease heartbeat renewals
	leaseLosses  atomic.Uint64 // demotions: a renew found the lease gone
	nProxied     atomic.Uint64 // follower misses answered by proxying to the leader
	refreshLoads atomic.Uint64 // entries the refresh loop pulled from the shared store
}

func (s *stats) hit()             { s.hits.Add(1) }
func (s *stats) miss()            { s.misses.Add(1) }
func (s *stats) reject()          { s.rejected.Add(1) }
func (s *stats) solveFailed()     { s.errors.Add(1) }
func (s *stats) degraded()        { s.nDegraded.Add(1) }
func (s *stats) cancelled()       { s.nCancelled.Add(1) }
func (s *stats) panicRecovered()  { s.nPanics.Add(1) }
func (s *stats) donorSolved()     { s.nDonor.Add(1) }
func (s *stats) storeWrote()      { s.storeWrites.Add(1) }
func (s *stats) storeShed()       { s.storeShedded.Add(1) }
func (s *stats) checkpointWrote() { s.ckptWrites.Add(1) }

func (s *stats) leaseRenewed() { s.leaseRenews.Add(1) }
func (s *stats) leaseLost()    { s.leaseLosses.Add(1) }

func (s *stats) upgraded(evicted int) {
	s.nUpgrades.Add(1)
	s.evicted.Add(uint64(evicted))
}

func (s *stats) storeLoaded(evicted int) {
	s.storeLoads.Add(1)
	s.evicted.Add(uint64(evicted))
}

func (s *stats) proxied(evicted int) {
	s.nProxied.Add(1)
	s.evicted.Add(uint64(evicted))
}

func (s *stats) refreshLoaded(evicted int) {
	s.refreshLoads.Add(1)
	s.evicted.Add(uint64(evicted))
}

func (s *stats) storeLoadFailed(quarantined bool) {
	s.storeLoadErr.Add(1)
	if quarantined {
		s.nQuarantined.Add(1)
	}
}

func (s *stats) scanQuarantined(n int) {
	s.nQuarantined.Add(uint64(n))
}

func (s *stats) solved(d time.Duration, evicted int) {
	s.solves.Add(1)
	s.evicted.Add(uint64(evicted))
	s.solveTotal.Add(int64(d))
	// CAS max loop: racing solves each install their own duration only
	// while it still exceeds the published maximum.
	for {
		cur := s.solveMax.Load()
		if int64(d) <= cur || s.solveMax.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// MechStats describes one cached mechanism in GET /stats.
type MechStats struct {
	Key     string  `json:"key"`
	K       int     `json:"k"`
	ETDD    float64 `json:"etdd"`
	Bound   float64 `json:"lower_bound"`
	SolveMs float64 `json:"solve_ms"`
	// Quality is the entry's degradation rung (serial.Quality*).
	Quality string `json:"quality"`
	// Served counts locations obfuscated with this mechanism.
	Served int64 `json:"served"`
}

// StatsSnapshot is the GET /stats payload.
type StatsSnapshot struct {
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheLen     int    `json:"cache_len"`
	CacheEvicted uint64 `json:"cache_evicted"`
	Solves       uint64 `json:"solves"`
	SolveErrors  uint64 `json:"solve_errors"`
	Rejected     uint64 `json:"rejected"`
	// DegradedServes counts responses served from a non-optimal
	// (incumbent or fallback) mechanism; CancelledSolves counts solves
	// interrupted by deadline/abandonment/shutdown; PanicRecoveries
	// counts solver panics converted into ladder rungs; Upgrades counts
	// degraded entries promoted by a background re-solve.
	DegradedServes  uint64 `json:"degraded_serves"`
	CancelledSolves uint64 `json:"cancelled_solves"`
	PanicRecoveries uint64 `json:"panic_recoveries"`
	Upgrades        uint64 `json:"upgrades"`
	// DonorSolves counts solves that started column generation from
	// their geometry's donor pool (in memory or on disk), not seeds.
	DonorSolves uint64 `json:"donor_solves"`
	// Serving-tier admission and coalescing. SolveQueueDepth and
	// ServeQueueDepth are instantaneous gauges (how many requests are
	// waiting on a cold-solve flight / inside the serve gate right now);
	// CoalescedRequests counts requests that joined an already in-flight
	// solve for their digest rather than starting one; AdmissionRejects
	// counts 429s issued by the serve gate — the solve gate's 429s stay
	// in Rejected, so the two backpressure sources are distinguishable.
	SolveQueueDepth   int64  `json:"solve_queue_depth"`
	ServeQueueDepth   int64  `json:"serve_queue_depth"`
	CoalescedRequests uint64 `json:"coalesced_requests"`
	AdmissionRejects  uint64 `json:"admission_rejects"`
	// Durability counters. StoreWrites counts entry snapshots and
	// CheckpointWrites geometry pool checkpoints committed; StoreLoads
	// counts cache misses answered warm from disk (no solve ran);
	// StoreLoadErrors counts snapshot and pool loads that failed;
	// CorruptQuarantined counts files moved aside as corrupt across scan
	// and load paths.
	StoreWrites        uint64 `json:"store_writes"`
	StoreLoads         uint64 `json:"store_loads"`
	StoreLoadErrors    uint64 `json:"store_load_errors"`
	CorruptQuarantined uint64 `json:"corrupt_quarantined"`
	CheckpointWrites   uint64 `json:"checkpoint_writes"`
	// StoreWriteShed counts durable writes failed or deliberately
	// skipped while the store was ENOSPC-degraded; QuarantineGCBytes is
	// the cumulative size the bounded quarantine sweeper has reclaimed.
	// Both zero in healthy steady state.
	StoreWriteShed    uint64  `json:"store_write_shed"`
	QuarantineGCBytes uint64  `json:"quarantine_gc_bytes"`
	AvgSolveMs        float64 `json:"avg_solve_ms"`
	MaxSolveMs        float64 `json:"max_solve_ms"`
	// Fleet membership. LeaseState is solo/leader/follower; FenceToken
	// is the lease fencing token stamped into this process's commits (0
	// while not leading); LeaseRenewals and LeaseLosses count heartbeat
	// outcomes; ProxiedSolves counts follower misses answered by
	// proxying the solve to the leader; RefreshLoads counts entries the
	// follower refresh loop pulled from the shared store.
	LeaseState    string `json:"lease_state"`
	FenceToken    uint64 `json:"fence_token"`
	LeaseRenewals uint64 `json:"lease_renewals"`
	LeaseLosses   uint64 `json:"lease_losses"`
	ProxiedSolves uint64 `json:"proxied_solves"`
	RefreshLoads  uint64 `json:"refresh_loads"`
	// ProxyBreakerState is the follower→leader proxy circuit breaker's
	// state (closed/open/half-open; empty outside fleet mode);
	// ProxyBreakerTrips counts how often it has opened.
	ProxyBreakerState string `json:"proxy_breaker_state,omitempty"`
	ProxyBreakerTrips uint64 `json:"proxy_breaker_trips"`
	// Mechanisms lists the cached mechanisms, most recently used first,
	// with their ETDD so operators can watch quality loss per network.
	Mechanisms []MechStats `json:"mechanisms"`
}

// snapshot captures the counters plus the current cache contents. Each
// counter is loaded independently, so a snapshot taken mid-request may
// be momentarily inconsistent across counters (hits vs. solves); that
// is fine for a monitoring endpoint and is the price of the lock-free
// request path.
func (s *stats) snapshot(cache *mechCache, leaseState string, fence uint64, breakerState string, breakerTrips, quarGC uint64) StatsSnapshot {
	solves := s.solves.Load()
	snap := StatsSnapshot{
		LeaseState:        leaseState,
		FenceToken:        fence,
		ProxyBreakerState: breakerState,
		ProxyBreakerTrips: breakerTrips,
		QuarantineGCBytes: quarGC,
		CacheHits:         s.hits.Load(),
		CacheMisses:       s.misses.Load(),
		CacheEvicted:      s.evicted.Load(),
		Solves:            solves,
		SolveErrors:       s.errors.Load(),
		Rejected:          s.rejected.Load(),
		DegradedServes:    s.nDegraded.Load(),
		CancelledSolves:   s.nCancelled.Load(),
		PanicRecoveries:   s.nPanics.Load(),
		Upgrades:          s.nUpgrades.Load(),
		DonorSolves:       s.nDonor.Load(),

		SolveQueueDepth:   s.solveQueueDepth.Load(),
		ServeQueueDepth:   s.serveQueueDepth.Load(),
		CoalescedRequests: s.coalesced.Load(),
		AdmissionRejects:  s.admissionRejects.Load(),

		StoreWrites:        s.storeWrites.Load(),
		StoreLoads:         s.storeLoads.Load(),
		StoreLoadErrors:    s.storeLoadErr.Load(),
		CorruptQuarantined: s.nQuarantined.Load(),
		CheckpointWrites:   s.ckptWrites.Load(),
		StoreWriteShed:     s.storeShedded.Load(),

		LeaseRenewals: s.leaseRenews.Load(),
		LeaseLosses:   s.leaseLosses.Load(),
		ProxiedSolves: s.nProxied.Load(),
		RefreshLoads:  s.refreshLoads.Load(),

		MaxSolveMs: float64(s.solveMax.Load()) / float64(time.Millisecond),
	}
	if solves > 0 {
		snap.AvgSolveMs = float64(s.solveTotal.Load()) / float64(solves) / float64(time.Millisecond)
	}

	entries := cache.entries()
	snap.CacheLen = len(entries)
	snap.Mechanisms = make([]MechStats, 0, len(entries))
	for _, e := range entries {
		snap.Mechanisms = append(snap.Mechanisms, MechStats{
			Key:     e.key,
			K:       e.mech.K(),
			ETDD:    e.etdd,
			Bound:   e.bound,
			SolveMs: float64(e.solveTime) / float64(time.Millisecond),
			Quality: e.tier,
			Served:  e.served.Load(),
		})
	}
	return snap
}
