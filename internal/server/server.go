// Package server implements the vlpserved obfuscation service: a
// long-lived HTTP front end over the D-VLP solver that exploits the
// offline/online split of location-privacy mechanisms — a column-
// generation solve is expensive but its result is a reusable K×K matrix,
// so the server solves each (network, params) spec once, caches the
// mechanism in a bounded LRU keyed by the spec's content digest, and
// serves obfuscation requests from the cache at sampling cost.
//
// Concurrency contract:
//
//   - concurrent requests for the same spec are deduplicated
//     singleflight-style: one solve runs, everyone shares its result,
//     and only the flight leader acquires a solve slot, so a same-digest
//     burst costs one slot;
//   - serving is two disjoint admission tiers: cold solves pass the
//     solve pool (past MaxSolves slots the request is rejected with 429
//     so load cannot pile up behind the solver), while sampling passes
//     the separate serve pool — cached obfuscation never queues behind
//     cold solves, so cached tail latency is isolated from solver
//     saturation;
//   - every cached mechanism carries its own seeded RNG behind a mutex,
//     so obfuscation is safe from any number of handler goroutines;
//   - served mechanisms are re-verified against the full (ε, r)-Geo-I
//     constraint set and repaired if solver tolerances left a residue
//     (core.Problem.EnforceGeoI) — the service never hands out samples
//     from a mechanism that violates the guarantee;
//   - Shutdown drains in-flight solves; past the drain budget it cancels
//     them and the ladder banks their incumbents.
//
// Failure posture — the degradation ladder. A solve is never
// all-or-nothing: when full column generation cannot complete (per-solve
// deadline, client abandonment, shutdown drain, numeric panic or solver
// error) the server degrades along
//
//	optimal CG → best incumbent of the interrupted run → ε/2 exponential mechanism
//
// with every rung repaired to exact Geo-I feasibility before serving.
// The privacy guarantee is identical on every rung; only ETDD degrades.
// Entries carry their quality tier (serial.Quality*), degraded entries
// are re-solved in the background and promoted when the full solve
// succeeds, and /stats exposes degraded_serves, cancelled_solves,
// panic_recoveries and upgrades.
package server

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/serial"
	"repro/internal/store"
)

// geoITol is the violation ceiling enforced on every served mechanism;
// an order of magnitude below the 1e-9 the service advertises.
const geoITol = 1e-10

// Config tunes a Server. The zero value selects sensible defaults.
type Config struct {
	// CacheSize bounds the mechanism LRU (default 16).
	CacheSize int
	// MaxSolves bounds concurrently running cold solves (the solve
	// pool); requests whose spec needs a solve past this limit receive
	// 429 (default 2).
	MaxSolves int
	// ServePool bounds concurrently sampling obfuscate requests (the
	// serve tier, default 32). The serve pool is disjoint from the solve
	// pool by construction: cached obfuscation never queues behind cold
	// solves, which is what keeps cached tail latency flat while the
	// solver saturates.
	ServePool int
	// ServeQueue bounds how many requests may wait for a serve-pool slot
	// before the gate sheds load with 429 (default 8×ServePool).
	ServeQueue int
	// SolveWait caps how long a request waits for a cold solve before
	// giving up with 504; the solve itself keeps running (until its own
	// deadline or abandonment) and its result lands in the cache
	// (default 2 minutes).
	SolveWait time.Duration
	// SolveDeadline caps the wall time of one column-generation solve.
	// A solve that outlives it is cancelled and degrades to the best
	// incumbent (or the exponential fallback) instead of erroring.
	// Zero means no per-solve deadline: only abandonment and shutdown
	// cancel a solve.
	SolveDeadline time.Duration
	// DisableUpgrade turns off the background re-solve that promotes
	// degraded cache entries to the optimal tier.
	DisableUpgrade bool
	// Seed is the base seed for per-mechanism sampler RNGs; each solved
	// mechanism gets Seed+n for the n-th solve, so a fixed Seed makes a
	// single-threaded request sequence reproducible (default 1).
	Seed int64
	// CG overrides the column-generation options for non-exact specs;
	// zero value selects the solver defaults used by vlp.Build.
	CG core.CGOptions

	// Store, when non-nil, makes mechanisms durable: completed entries
	// and mid-solve checkpoints are snapshotted to disk, cache misses
	// check the store before paying for a cold solve, and New replays
	// interrupted solves found on disk. Nil (the default) keeps the
	// server purely in-memory.
	Store *store.Store
	// CheckpointRounds is how many completed CG rounds pass between
	// durable mid-solve checkpoints when Store is set: 0 selects the
	// default (8), negative disables checkpointing while keeping entry
	// persistence.
	CheckpointRounds int

	// Fleet, when non-nil, runs this server as a member of a
	// shared-store serving fleet (see fleet.go): Store is required and
	// must be opened with store.OpenFleet so commits are fenced by the
	// lease protocol. Nil keeps the server solo.
	Fleet *FleetConfig
}

// defaultCheckpointRounds is the checkpoint cadence when a store is
// configured but CheckpointRounds is zero.
const defaultCheckpointRounds = 8

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 16
	}
	if c.MaxSolves <= 0 {
		c.MaxSolves = 2
	}
	if c.ServePool <= 0 {
		c.ServePool = 32
	}
	if c.ServeQueue <= 0 {
		c.ServeQueue = 8 * c.ServePool
	}
	if c.SolveWait <= 0 {
		c.SolveWait = 2 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CG.Xi == 0 && c.CG.RelGap == 0 {
		// Default only the stop criteria; any other configured CG fields
		// (iteration caps, workers, observers) are kept.
		c.CG.Xi = -0.05
		c.CG.RelGap = 0.02
	}
	if c.Fleet != nil {
		c.Fleet = c.Fleet.withDefaults()
	}
	return c
}

// entry is one cached mechanism with its concurrency-safe sampler.
type entry struct {
	key       string
	prob      *core.Problem
	mech      *core.Mechanism
	etdd      float64
	bound     float64
	tier      string // serial.Quality* — the degradation rung served
	solveTime time.Duration
	served    atomic.Int64

	// state is the interrupted run's column pool when the entry is
	// degraded (nil on the optimal tier); the background upgrade resumes
	// column generation from it instead of restarting. Immutable.
	state *core.CGState

	// sampleMu guards rng: mechanism rows are immutable, the RNG stream
	// is the only mutable sampler state.
	sampleMu chanMutex
	rng      *rand.Rand
}

// chanMutex is a mutex whose Lock can be abandoned on context
// cancellation, so a request deadline also bounds time spent queueing
// for a popular mechanism's sampler.
type chanMutex chan struct{}

func newChanMutex() chanMutex { return make(chanMutex, 1) }

func (m chanMutex) lock(ctx context.Context) error {
	select {
	case m <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m chanMutex) unlock() { <-m }

// sample obfuscates one true location under the entry's mechanism.
func (e *entry) sample(ctx context.Context, truth roadnet.Location) (roadnet.Location, error) {
	if err := e.sampleMu.lock(ctx); err != nil {
		return roadnet.Location{}, err
	}
	defer e.sampleMu.unlock()
	obf := e.mech.Sample(e.rng, truth)
	e.served.Add(1)
	return obf, nil
}

// Service errors mapped to HTTP statuses by the handlers.
var (
	// ErrBusy reports that the in-flight solve limit is reached; clients
	// should back off and retry (429).
	ErrBusy = errors.New("server: solve capacity exhausted, retry later")
	// ErrClosed reports that the server is shutting down (503).
	ErrClosed = errors.New("server: shutting down")
)

// Server is the obfuscation service. Create with New; all methods are
// safe for concurrent use.
type Server struct {
	cfg    Config
	cache  *mechCache
	flight *group
	slots  chan struct{} // admission gate for cold solves (the solve pool)
	// serveGate is the disjoint admission gate for the sampling tier:
	// obfuscate requests acquire a serve slot only after their mechanism
	// is in hand, so cached serving capacity is never consumed by — and
	// never queues behind — cold solves.
	serveGate *tierGate
	stats     *stats
	closed    atomic.Bool
	seq       atomic.Int64 // per-solve sampler seed offset

	// ctx is the root of every solve context; cancel fires when a
	// shutdown drain budget expires and tears down remaining solves.
	ctx    context.Context
	cancel context.CancelFunc
	// bg tracks background upgrade re-solves; upgrading dedupes them
	// per cache key.
	bg        sync.WaitGroup
	upgrading sync.Map

	// store is the durable snapshot store (nil without Config.Store);
	// resume maps spec digest → *core.CGState restored from an on-disk
	// checkpoint, consumed by solve as a warm-start and cleared when the
	// digest reaches the optimal tier.
	store  *store.Store
	resume sync.Map

	// Fleet state (see fleet.go): role is one of leaseSolo/Follower/
	// Leader, driven by the lease loop; fleetStop ends that loop at
	// shutdown (closed exactly once via fleetOnce).
	role      atomic.Int32
	fleetStop chan struct{}
	fleetOnce sync.Once
	// leaderURL caches the leaseholder's advertise URL (a string; ""
	// when unknown or when this process leads), refreshed by the lease
	// loop so the X-VLP-Leader response header never reads the store on
	// the request path.
	leaderURL atomic.Value
	// proxyBreaker is the circuit breaker on the follower→leader proxy
	// rung (breaker.go); nil outside fleet mode.
	proxyBreaker *breaker

	// storeDegraded latches when a durable write hits a full disk
	// (ENOSPC): while set, checkpoint writes are shed without touching
	// the disk and entry persists double as recovery probes — the first
	// one that lands clears the latch. Serving is never affected; the
	// latch only spends (or saves) durability I/O.
	storeDegraded atomic.Bool

	// solveFn builds the entry for a validated spec; tests substitute a
	// stub to count and pace solves deterministically.
	solveFn func(ctx context.Context, spec *serial.SolveSpec) (*entry, error)
}

// New returns a ready-to-serve Server. Background solves and upgrades
// are bounded by ctx: cancelling it (in addition to calling Close)
// aborts every in-flight solve the server owns.
func New(ctx context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	st := &stats{}
	s := &Server{
		cfg:       cfg,
		cache:     newMechCache(cfg.CacheSize),
		flight:    newGroup(&st.coalesced, &st.solveQueueDepth),
		slots:     make(chan struct{}, cfg.MaxSolves),
		serveGate: newTierGate(cfg.ServePool, cfg.ServeQueue, &st.serveQueueDepth, &st.admissionRejects),
		stats:     st,
	}
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.fleetStop = make(chan struct{})
	s.solveFn = s.solve
	s.store = cfg.Store
	switch {
	case s.store != nil && cfg.Fleet != nil:
		s.proxyBreaker = newBreaker(cfg.Fleet.BreakerThreshold, cfg.Fleet.BreakerCooldown)
		s.startFleet()
	case s.store != nil:
		s.recoverFromStore()
	}
	return s
}

// mechanismFor returns the cached mechanism for spec, solving it on a
// miss. The second result reports whether the request was served from
// cache (joining an in-flight solve counts as a miss).
func (s *Server) mechanismFor(ctx context.Context, spec *serial.SolveSpec) (*entry, bool, error) {
	key := spec.Digest()
	if e, ok := s.cache.get(key); ok {
		s.stats.hit()
		if e.tier != serial.QualityOptimal {
			s.stats.degraded()
		}
		return e, true, nil
	}
	s.stats.miss()
	if s.closed.Load() {
		return nil, false, ErrClosed
	}
	waitCtx, cancel := context.WithTimeout(ctx, s.cfg.SolveWait)
	defer cancel()
	e, err := s.flight.do(waitCtx, key, s.ctx, s.cfg.SolveDeadline, func(solveCtx context.Context) (*entry, error) {
		// Double-check under singleflight: a previous flight may have
		// populated the cache between our miss and becoming leader.
		if cached, ok := s.cache.get(key); ok {
			return cached, nil
		}
		if s.closed.Load() {
			return nil, ErrClosed
		}
		// A durable snapshot beats a cold solve: consult the store before
		// competing for a solve slot, so restarts and LRU evictions cost a
		// disk read, not minutes of column generation.
		if warm := s.entryFromStore(key, spec); warm != nil {
			evicted := s.cache.add(key, warm)
			s.stats.storeLoaded(evicted)
			if warm.tier != serial.QualityOptimal {
				s.scheduleUpgrade(key, spec)
			}
			return warm, nil
		}
		// Followers never cold-solve: proxy to the leaseholder or serve
		// the fallback rung (fleet.go).
		if s.isFollower() {
			return s.followerEntry(solveCtx, key, spec)
		}
		select {
		case s.slots <- struct{}{}:
		default:
			s.stats.reject()
			return nil, ErrBusy
		}
		defer func() { <-s.slots }()
		start := time.Now()
		ent, err := s.solveFn(solveCtx, spec)
		if err != nil {
			s.stats.solveFailed()
			return nil, err
		}
		ent.key = key
		ent.solveTime = time.Since(start)
		evicted := s.cache.add(key, ent)
		s.stats.solved(ent.solveTime, evicted)
		s.persistEntry(key, spec, ent)
		if ent.tier != serial.QualityOptimal {
			s.scheduleUpgrade(key, spec)
		}
		return ent, nil
	})
	if err != nil {
		return nil, false, err
	}
	if e.tier != serial.QualityOptimal {
		s.stats.degraded()
	}
	return e, false, nil
}

// newEntry wraps a servable (already Geo-I-repaired) mechanism in a
// cache entry with its own sampler stream.
func (s *Server) newEntry(pr *core.Problem, mech *core.Mechanism, etdd, bound float64, tier string) *entry {
	return &entry{
		prob:     pr,
		mech:     mech,
		etdd:     etdd,
		bound:    bound,
		tier:     tier,
		sampleMu: newChanMutex(),
		rng:      rand.New(rand.NewSource(s.cfg.Seed + s.seq.Add(1))),
	}
}

// fallbackEntry builds the bottom-rung entry — the ε/2 exponential
// mechanism, strictly feasible by construction and verified once more
// by EnforceGeoI — without touching the solve pool. The privacy
// guarantee is identical to every other rung; only ETDD degrades.
func (s *Server) fallbackEntry(pr *core.Problem) (*entry, error) {
	served, etdd, err := pr.EnforceGeoI(pr.ExponentialMechanism(), geoITol)
	if err != nil {
		return nil, err
	}
	return s.newEntry(pr, served, etdd, 0, serial.QualityFallback), nil
}

// solve runs the full offline pipeline for a validated spec and applies
// the degradation ladder: an optimal column-generation solve when it
// completes within its context, else the interrupted run's best
// incumbent, else the closed-form exponential mechanism. Every rung is
// repaired to exact Geo-I feasibility before it becomes servable, so
// the privacy guarantee never degrades — only ETDD does.
func (s *Server) solve(ctx context.Context, spec *serial.SolveSpec) (*entry, error) {
	pr, err := spec.Problem()
	if err != nil {
		return nil, err
	}
	opts := s.cfg.CG
	if spec.Exact {
		// Exact tightens only the stop criteria; the configured
		// iteration/worker/LP limits still apply. (A previous version
		// replaced the whole option set here, silently unbounding exact
		// solves.)
		opts.Xi = 0
		opts.RelGap = 0
	}
	// A degraded incumbent for this spec carries the interrupted run's
	// column pool; resume column generation from it rather than restart.
	// (Only the background upgrade and post-eviction re-solves can see a
	// cached entry here — a plain cache hit never reaches solve.) Second
	// choice: a checkpoint recovered from disk after a restart.
	key := spec.Digest()
	if prev, ok := s.cache.get(key); ok && prev.state != nil {
		opts.Resume = prev.state
	} else if st, ok := s.resume.Load(key); ok {
		opts.Resume = st.(*core.CGState)
	}
	// With a store configured, periodically snapshot the run's column
	// pool so a kill mid-solve costs at most CheckpointRounds rounds.
	if every := s.checkpointEvery(); every > 0 {
		opts.CheckpointEvery = every
		opts.OnState = func(iter int, st *core.CGState) {
			s.writeCheckpoint(spec, iter+1, st)
		}
	}
	res, solveErr := core.SolveCGCtx(ctx, pr, opts)

	tier := serial.QualityOptimal
	var mech *core.Mechanism
	var bound float64
	switch {
	case solveErr == nil:
		mech, bound = res.Mechanism, res.LowerBound
	case isCancellation(solveErr):
		s.stats.cancelled()
		if res != nil && res.Mechanism != nil {
			tier = serial.QualityIncumbent
			mech, bound = res.Mechanism, res.LowerBound
		} else {
			// Cancelled before a first master round completed: no
			// incumbent exists yet.
			tier = serial.QualityFallback
		}
	default:
		var pe *core.PanicError
		if errors.As(solveErr, &pe) {
			s.stats.panicRecovered()
		}
		tier = serial.QualityFallback
	}

	var e *entry
	if mech != nil {
		// Repair failure is one more rung down, not a request error.
		if served, etdd, err := pr.EnforceGeoI(mech, geoITol); err == nil {
			e = s.newEntry(pr, served, etdd, bound, tier)
		}
	}
	if e == nil {
		if e, err = s.fallbackEntry(pr); err != nil {
			return nil, err
		}
	}
	if e.tier != serial.QualityOptimal && res != nil && res.State != nil {
		// Keep the interrupted run's pool so the upgrade re-solve starts
		// where this one stopped.
		e.state = res.State
	}
	return e, nil
}

// isCancellation reports whether err is a context cancellation or
// deadline expiry (possibly wrapped).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// scheduleUpgrade starts (at most one per key) a background re-solve of
// a spec whose cached entry is degraded, promoting the entry when the
// unrestricted solve reaches the optimal tier. The upgrade runs on the
// server's root context only — no per-solve deadline and no waiting
// client to abandon it — so its sole interruption is shutdown.
func (s *Server) scheduleUpgrade(key string, spec *serial.SolveSpec) {
	// Followers skip upgrades entirely: they could not commit the result
	// (stale fence) and the leader re-solves degraded entries itself.
	if s.cfg.DisableUpgrade || s.closed.Load() || s.isFollower() {
		return
	}
	if _, loaded := s.upgrading.LoadOrStore(key, struct{}{}); loaded {
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		defer s.upgrading.Delete(key)
		start := time.Now()
		e, err := s.solveFn(s.ctx, spec)
		if err != nil || e.tier != serial.QualityOptimal {
			return // keep serving the degraded entry
		}
		e.key = key
		e.solveTime = time.Since(start)
		s.cache.add(key, e)
		s.stats.upgraded()
		s.persistEntry(key, spec, e)
	}()
}

// BeginShutdown marks the server as draining: new work (and /healthz,
// so load balancers stop routing here) answers 503 while in-flight
// solves continue. The fleet lease loop is told to stop — it releases
// the lease on exit so a peer is elected promptly. Call it before
// draining the HTTP listener.
func (s *Server) BeginShutdown() {
	s.closed.Store(true)
	s.fleetOnce.Do(func() { close(s.fleetStop) })
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.closed.Load() }

// Shutdown stops admitting new solves and drains the in-flight and
// background ones (their results still land in the cache for a possible
// restart-free resume). If the drain budget expires first, every
// remaining solve is cancelled outright — the degradation ladder banks
// each one's incumbent within roughly one master round — and Shutdown
// returns ctx.Err() once they have stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginShutdown()
	done := make(chan struct{})
	go func() {
		s.flight.wait()
		s.bg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// Stats snapshots the service counters and cached mechanisms.
func (s *Server) Stats() StatsSnapshot {
	var fence, quarGC uint64
	if s.store != nil {
		fence = s.store.Fence()
		quarGC = s.store.QuarantineGCBytes()
	}
	var breakerState string
	var breakerTrips uint64
	if s.proxyBreaker != nil {
		breakerState, breakerTrips = s.proxyBreaker.snapshot()
	}
	return s.stats.snapshot(s.cache, s.leaseState(), fence, breakerState, breakerTrips, quarGC)
}
