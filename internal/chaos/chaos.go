// Package chaos is the deterministic fleet chaos harness: it runs an
// N-process vlpserved fleet over one shared store directory and drives
// a seeded request schedule through a scripted sequence of fault
// phases — disk full (ENOSPC), torn writes, stalled fsync, a SIGSTOP'd
// leader whose lease expires while the process lives, and blackholed
// follower→leader proxying — while classifying every response against
// the service's availability contract:
//
//   - every response is 2xx or 429; a timeout is tolerated only from
//     the paused member,
//   - every 2xx carries a known serving tier and in-domain locations,
//   - in a healthy phase every live member answers at least one 2xx,
//   - until the first fault phase the fleet solves each requested
//     digest exactly once (followers never cold-solve),
//   - a member's nonzero fencing token never decreases, and a leader
//     pause forces the fleet-wide fence high-water to increase,
//   - after the run, a fresh store replay is clean (zero quarantined
//     files) and every committed mechanism still satisfies its spec's
//     (ε, r)-Geo-I constraints to tolerance.
//
// cmd/vlpchaos is the CLI; ci.sh runs the bounded TestChaosSmoke gate
// and archives the emitted report as BENCH_chaos.json.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/roadnet"
	"repro/internal/serial"
	"repro/internal/server"
	"repro/internal/store"
)

// Target selects which fleet members a phase's fault spec is armed on.
type Target string

const (
	TargetNone      Target = ""
	TargetLeader    Target = "leader"
	TargetFollowers Target = "followers"
	TargetAll       Target = "all"
)

// Phase is one step of the fault schedule. Faults are armed on the
// selected members at phase start (via the /debug/faults control
// surface the harness enables with VLP_FAULT_CTL=1) and cleared at
// phase end; load runs throughout.
type Phase struct {
	Name     string
	Duration time.Duration
	// FaultSpec is a faultinject spec string ("store/write=enospc")
	// POSTed to each Target member's /debug/faults; empty arms nothing.
	FaultSpec string
	Target    Target
	// PauseLeader SIGSTOPs the current leader for the whole phase: its
	// lease expires while the process lives, a follower must take over
	// with a bumped fencing token, and the stale leader's writes must be
	// fence-rejected after SIGCONT.
	PauseLeader bool
}

// healthy reports whether the phase arms no fault and pauses no one.
func (ph Phase) healthy() bool { return ph.FaultSpec == "" && !ph.PauseLeader }

// Config parameterises a Run. Zero values take the documented defaults.
type Config struct {
	// Bin is the vlpserved binary to spawn.
	Bin string
	// StoreDir is the shared store directory; the caller owns cleanup.
	StoreDir string
	Procs    int     // fleet size (default 3)
	Seed     int64   // request-schedule seed (default 1)
	Rate     float64 // open-loop request rate in req/s (default 20)
	TTL      time.Duration
	Poll     time.Duration // fleet heartbeat cadence (default TTL/5)
	// RequestTimeout bounds each driver request; a request that exceeds
	// it counts as a violation unless its member was paused.
	RequestTimeout time.Duration // default max(3s, 2×TTL)
	Phases         []Phase
	// ChildLog receives the children's stderr (nil discards it).
	ChildLog io.Writer
	// Logf receives harness progress lines (nil is silent).
	Logf func(format string, args ...interface{})
}

func (c *Config) defaults() error {
	if c.Bin == "" {
		return fmt.Errorf("chaos: Config.Bin (vlpserved binary) is required")
	}
	if c.StoreDir == "" {
		return fmt.Errorf("chaos: Config.StoreDir is required")
	}
	if len(c.Phases) == 0 {
		return fmt.Errorf("chaos: Config.Phases is empty")
	}
	for i, ph := range c.Phases {
		if ph.Name == "" || ph.Duration <= 0 {
			return fmt.Errorf("chaos: phase %d needs a name and a positive duration", i)
		}
	}
	if c.Procs == 0 {
		c.Procs = 3
	}
	if c.Procs < 2 {
		return fmt.Errorf("chaos: a fleet needs at least 2 processes, got %d", c.Procs)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Rate == 0 {
		c.Rate = 20
	}
	if c.Rate <= 0 {
		return fmt.Errorf("chaos: non-positive request rate %v", c.Rate)
	}
	if c.TTL <= 0 {
		c.TTL = time.Second
	}
	if c.Poll <= 0 {
		c.Poll = c.TTL / 5
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 3 * time.Second
		if d := 2 * c.TTL; d > c.RequestTimeout {
			c.RequestTimeout = d
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	if c.ChildLog == nil {
		c.ChildLog = io.Discard
	}
	return nil
}

// StandardPhases is the canonical schedule: a healthy baseline, the
// three disk faults, a leader pause sized to outlive the lease (its
// duration is d + 2·ttl so the election reliably lands inside the
// phase), a follower-side proxy blackhole, and a recovery tail that
// proves the fleet returns to clean serving.
func StandardPhases(d, ttl time.Duration) []Phase {
	return []Phase{
		{Name: "baseline", Duration: d},
		{Name: "disk-full", Duration: d, FaultSpec: store.FaultSiteWrite + "=enospc", Target: TargetAll},
		{Name: "torn-write", Duration: d, FaultSpec: store.FaultSiteShortWrite + "=err:torn", Target: TargetAll},
		{Name: "fsync-stall", Duration: d, FaultSpec: store.FaultSiteFsync + "=delay:150ms", Target: TargetAll},
		{Name: "leader-pause", Duration: d + 2*ttl, PauseLeader: true},
		{Name: "proxy-blackhole", Duration: d, FaultSpec: server.FaultSiteFleetProxy + "=err:blackhole", Target: TargetFollowers},
		{Name: "recovery", Duration: d},
	}
}

// chaosSpec builds the i-th deterministic solve spec of a run: a small
// 2×2 grid whose jittered edge weights make every index a distinct
// digest, so each phase can introduce genuinely cold work.
func chaosSpec(seed int64, i int) *serial.SolveSpec {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
	net := serial.FromGraph(roadnet.Grid(rng, roadnet.GridConfig{
		Rows: 2, Cols: 2, Spacing: 0.3, WeightJitter: 0.2,
	}))
	return &serial.SolveSpec{Network: net, Delta: 0.3, Epsilon: 5}
}

// phaseRNG seeds one phase's request schedule. Each phase reseeds from
// (run seed, phase index) rather than sharing one stream, so the
// spec/location sequence a phase draws is deterministic even though
// how many requests fit in a wall-clock window is not.
func phaseRNG(seed int64, phase int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(phase) + 1))
}

// randomLocs draws n uniform on-network true locations for spec.
func randomLocs(rng *rand.Rand, spec *serial.SolveSpec, n int) []serial.Loc {
	locs := make([]serial.Loc, n)
	for i := range locs {
		e := rng.Intn(len(spec.Network.Edges))
		locs[i] = serial.Loc{Road: e, FromStart: rng.Float64() * spec.Network.Edges[e].Weight}
	}
	return locs
}
