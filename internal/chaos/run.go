package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/serial"
)

// runner holds one Run's mutable state. All fields are touched only by
// the Run goroutine; the driver's request goroutines communicate back
// exclusively through the per-phase outcome slice.
type runner struct {
	cfg     *Config
	members []*member
	// specs is the warm pool: two warmup specs plus each completed
	// phase's fresh spec.
	specs []*serial.SolveSpec
	// requested holds the digest of every spec sent so far (warmup
	// solves and driver requests); faulted turns true at the first
	// fault or pause phase, ending the one-solve-per-digest rule.
	requested map[string]bool
	faulted   bool
	// lastFence remembers each member's last nonzero fencing token;
	// fenceHigh is the fleet-wide maximum ever observed.
	lastFence      map[int]uint64
	fenceHigh      uint64
	violations     []string
	violationCount int
	phases         []PhaseResult
	fenceBumps     int
}

// Run executes the configured fault schedule against a fresh fleet and
// returns the classified report. The caller stamps GeneratedUnix and
// GoVersion before archiving it. A non-nil error means the harness
// itself could not run (spawn failure, no leader, an unarmable fault);
// contract violations never error — they are counted in the report.
func Run(cfg Config) (*Report, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	r := &runner{cfg: &cfg, lastFence: make(map[int]uint64), requested: make(map[string]bool)}
	defer r.killAll()

	if err := r.startFleet(); err != nil {
		return nil, err
	}
	fenceStart, err := r.warmup()
	if err != nil {
		return nil, err
	}
	for i := range cfg.Phases {
		if err := r.runPhase(i); err != nil {
			return nil, err
		}
	}
	if _, err := r.awaitLeader(10 * cfg.TTL); err != nil {
		r.violate("fleet never settled on a single leader after the last phase: %v", err)
	}
	r.scanFences()
	counters := r.scrapeCounters()
	r.killAll()

	audit, auditViolations := auditStore(cfg.StoreDir)
	for _, v := range auditViolations {
		r.violate("%s", v)
	}

	rep := &Report{
		Config:             runConfig(&cfg),
		Phases:             r.phases,
		ViolationCount:     r.violationCount,
		Violations:         r.violations,
		FenceStart:         fenceStart,
		FenceEnd:           r.fenceHigh,
		FailoverFenceBumps: r.fenceBumps,
		Counters:           counters,
		Audit:              audit,
	}
	for _, p := range r.phases {
		rep.Requests += p.Requests
	}
	return rep, nil
}

func runConfig(cfg *Config) RunConfig {
	rc := RunConfig{
		Procs:      cfg.Procs,
		Seed:       cfg.Seed,
		RateRPS:    cfg.Rate,
		LeaseTTLMs: float64(cfg.TTL) / float64(time.Millisecond),
	}
	for _, ph := range cfg.Phases {
		rc.Phases = append(rc.Phases, PhaseConfig{
			Name:        ph.Name,
			DurationSec: ph.Duration.Seconds(),
			FaultSpec:   ph.FaultSpec,
			Target:      string(ph.Target),
			PauseLeader: ph.PauseLeader,
		})
	}
	return rc
}

// violate records one contract violation: always counted, kept
// verbatim up to the report's detail cap.
func (r *runner) violate(format string, args ...interface{}) {
	r.violationCount++
	msg := fmt.Sprintf(format, args...)
	r.cfg.Logf("chaos: VIOLATION: %s", msg)
	if len(r.violations) < maxViolationDetail {
		r.violations = append(r.violations, msg)
	}
}

func (r *runner) startFleet() error {
	for i := 0; i < r.cfg.Procs; i++ {
		m, err := startMember(r.cfg, i)
		if err != nil {
			return err
		}
		r.members = append(r.members, m)
	}
	for _, m := range r.members {
		if err := m.waitHealthy(15 * time.Second); err != nil {
			return err
		}
	}
	r.cfg.Logf("chaos: fleet of %d healthy over %s", len(r.members), r.cfg.StoreDir)
	return nil
}

func (r *runner) killAll() {
	for _, m := range r.members {
		m.kill()
	}
}

// awaitLeader polls the reachable members until exactly one reports
// lease_state "leader" and returns its index.
func (r *runner) awaitLeader(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	leaders := 0
	for {
		leader := -1
		leaders = 0
		for _, m := range r.members {
			if m.paused || m.killed {
				continue
			}
			st, err := m.leaseState()
			if err != nil {
				continue
			}
			if st == "leader" {
				leader = m.index
				leaders++
			}
		}
		if leaders == 1 {
			return leader, nil
		}
		if !time.Now().Before(deadline) {
			return -1, fmt.Errorf("chaos: %d leaders visible after %v", leaders, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// warmup solves the two base specs through the leader and waits for
// both snapshots to be durable, so every fault phase starts from a
// store with committed state to corrupt. Returns the fence high-water
// at the healthy start.
func (r *runner) warmup() (uint64, error) {
	leader, err := r.awaitLeader(15 * time.Second)
	if err != nil {
		return 0, err
	}
	// Cold solves get their own generous budget; the driver's tight
	// RequestTimeout applies only to scheduled load.
	warm := &http.Client{Timeout: 30 * time.Second}
	for i := 0; i < 2; i++ {
		spec := chaosSpec(r.cfg.Seed, i)
		r.specs = append(r.specs, spec)
		r.requested[spec.Digest()] = true
		body, err := json.Marshal(spec)
		if err != nil {
			return 0, fmt.Errorf("chaos: warmup spec %d: %w", i, err)
		}
		resp, err := warm.Post(r.members[leader].url("/solve"), "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, fmt.Errorf("chaos: warmup solve %d: %w", i, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("chaos: warmup solve %d: status %d", i, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, err := r.members[leader].rawStats()
		if err == nil {
			if w, _ := raw["store_writes"].(float64); w >= 2 {
				break
			}
		}
		if !time.Now().Before(deadline) {
			return 0, fmt.Errorf("chaos: warmup snapshots never became durable")
		}
		time.Sleep(50 * time.Millisecond)
	}
	r.scanFences()
	r.cfg.Logf("chaos: warm: 2 specs durable, fence high-water %d", r.fenceHigh)
	return r.fenceHigh, nil
}

func (r *runner) selectTargets(t Target, leader int) []*member {
	var out []*member
	for _, m := range r.members {
		switch t {
		case TargetAll:
			out = append(out, m)
		case TargetLeader:
			if m.index == leader {
				out = append(out, m)
			}
		case TargetFollowers:
			if m.index != leader {
				out = append(out, m)
			}
		}
	}
	return out
}

func (r *runner) runPhase(pi int) error {
	ph := r.cfg.Phases[pi]
	res := PhaseResult{Name: ph.Name}
	leader, err := r.awaitLeader(10 * r.cfg.TTL)
	if err != nil {
		return err
	}
	r.cfg.Logf("chaos: phase %q (%v): leader m%d, fault %q on %q",
		ph.Name, ph.Duration, leader, ph.FaultSpec, ph.Target)

	// Every phase introduces one genuinely cold spec, so fault paths
	// that only fire on misses (persist, proxy) see real work.
	fresh := chaosSpec(r.cfg.Seed, len(r.specs))
	if ph.FaultSpec != "" {
		for _, m := range r.selectTargets(ph.Target, leader) {
			if err := m.armFault(ph.FaultSpec); err != nil {
				return err
			}
		}
	}
	preFence := r.fenceHigh
	paused := -1
	if ph.PauseLeader {
		if err := r.members[leader].pause(); err != nil {
			return err
		}
		paused = leader
	}

	r.drive(&res, ph, fresh, paused)

	for _, m := range r.members {
		if m.killed {
			continue
		}
		if err := m.clearFaults(); err != nil {
			return err
		}
	}
	r.specs = append(r.specs, fresh)
	r.scanFences()
	if ph.PauseLeader {
		// The pause outlives the lease, so some follower must have taken
		// over under a strictly larger fencing token. Give the election a
		// few TTLs of grace past the phase itself.
		deadline := time.Now().Add(10 * r.cfg.TTL)
		for r.fenceHigh <= preFence && time.Now().Before(deadline) {
			time.Sleep(100 * time.Millisecond)
			r.scanFences()
		}
		if r.fenceHigh > preFence {
			r.fenceBumps++
		} else {
			r.violate("phase %q: fence high-water never rose above %d after the leader pause", ph.Name, preFence)
		}
	}
	res.FenceHighWater = r.fenceHigh
	res.Solves = r.scrapeCounters().Solves
	r.checkSolves(&res, ph)
	r.phases = append(r.phases, res)
	r.cfg.Logf("chaos: phase %q done: %d requests (%d ok, %d shed, %d tolerated, %d violations)",
		ph.Name, res.Requests, res.OK, res.Shed, res.Tolerated, res.Violations)
	return nil
}

// outcome is one driver request's raw result, classified after the
// phase drains.
type outcome struct {
	member int
	spec   *serial.SolveSpec
	nloc   int
	status int
	err    error
	body   []byte
}

// drive runs the open-loop load for one phase: round-robin over all
// members (the paused one included — its timeouts are the tolerated
// failure mode under test), the phase's fresh spec first and then
// specs drawn from the seeded schedule. A paused leader is resumed
// after dispatch stops, so its backlog drains before classification.
func (r *runner) drive(res *PhaseResult, ph Phase, fresh *serial.SolveSpec, paused int) {
	interval := time.Duration(float64(time.Second) / r.cfg.Rate)
	// Fault phases skew toward the cold spec so the faulted paths
	// (persist, proxy) see steady work; healthy phases mostly re-serve
	// the warm pool.
	freshProb := 0.25
	if !ph.healthy() {
		freshProb = 0.5
	}
	rng := phaseRNG(r.cfg.Seed, len(r.phases))
	end := time.Now().Add(ph.Duration)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var outs []outcome
	for next, i := time.Now(), 0; time.Now().Before(end); i++ {
		m := r.members[i%len(r.members)]
		spec := fresh
		if i > 0 && rng.Float64() >= freshProb {
			spec = r.specs[rng.Intn(len(r.specs))]
		}
		r.requested[spec.Digest()] = true
		nloc := 1 + rng.Intn(2)
		req := serial.ObfuscateRequest{SolveSpec: *spec, Locations: randomLocs(rng, spec, nloc)}
		body, err := json.Marshal(&req)
		if err != nil {
			r.violate("phase %q: marshal request: %v", ph.Name, err)
			continue
		}
		wg.Add(1)
		go func(tm *member, tspec *serial.SolveSpec, tn int, tbody []byte) {
			defer wg.Done()
			o := outcome{member: tm.index, spec: tspec, nloc: tn}
			resp, err := tm.client.Post(tm.url("/obfuscate"), "application/json", bytes.NewReader(tbody))
			if err != nil {
				o.err = err
			} else {
				o.status = resp.StatusCode
				o.body, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<20))
				resp.Body.Close()
			}
			mu.Lock()
			outs = append(outs, o)
			mu.Unlock()
		}(m, spec, nloc, body)
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	if paused >= 0 {
		if err := r.members[paused].resume(); err != nil {
			r.violate("phase %q: %v", ph.Name, err)
		}
	}
	wg.Wait()
	r.classifyPhase(res, ph, paused, outs)
}

// classifyPhase applies the availability contract to a drained phase:
// every outcome on its own, then, in a healthy phase, the per-member
// rule that each live member answered at least one valid 2xx — a
// member that only sheds or errors is not serving, even when every
// single response is allowed.
func (r *runner) classifyPhase(res *PhaseResult, ph Phase, paused int, outs []outcome) {
	res.Requests = len(outs)
	ok := make(map[int]int)
	for _, o := range outs {
		if r.classify(res, paused, o) {
			ok[o.member]++
		}
	}
	if !ph.healthy() {
		return
	}
	for _, m := range r.members {
		if !m.killed && !m.paused && ok[m.index] == 0 {
			r.violate("phase %q: live member m%d answered no 2xx in a healthy phase", res.Name, m.index)
		}
	}
}

// checkSolves applies the one-solve-per-digest rule to a finished
// phase: until the schedule's first fault or pause, the fleet-wide
// solve count must equal the distinct digests requested so far — the
// leader solved each exactly once and no follower cold-solved. Faults
// legitimately re-solve (a shed commit, a recovered checkpoint), so
// the rule ends there.
func (r *runner) checkSolves(res *PhaseResult, ph Phase) {
	if !ph.healthy() {
		r.faulted = true
	}
	if !r.faulted && res.Solves != uint64(len(r.requested)) {
		r.violate("phase %q: fleet ran %d solves for %d distinct digests, want exactly one each",
			res.Name, res.Solves, len(r.requested))
	}
}

// classify applies the availability contract to one raw outcome and
// reports whether it was a valid 2xx.
func (r *runner) classify(res *PhaseResult, paused int, o outcome) bool {
	switch {
	case o.err != nil:
		if o.member == paused {
			res.Tolerated++
			return false
		}
		res.Violations++
		r.violate("phase %q: request to live member m%d failed: %v", res.Name, o.member, o.err)
	case o.status == http.StatusTooManyRequests:
		res.Shed++
	case o.status < 200 || o.status >= 300:
		res.Violations++
		r.violate("phase %q: member m%d answered status %d: %.200s", res.Name, o.member, o.status, o.body)
	default:
		var or serial.ObfuscateResponse
		if err := json.Unmarshal(o.body, &or); err != nil {
			res.Violations++
			r.violate("phase %q: member m%d 2xx body undecodable: %v", res.Name, o.member, err)
			return false
		}
		if msg := checkResponse(o.spec, o.nloc, &or); msg != "" {
			res.Violations++
			r.violate("phase %q: member m%d: %s", res.Name, o.member, msg)
			return false
		}
		res.OK++
		switch {
		case or.Cached:
			res.RungMix.Cached++
		case or.Quality == serial.QualityIncumbent:
			res.RungMix.Incumbent++
		case or.Quality == serial.QualityFallback:
			res.RungMix.Fallback++
		default:
			res.RungMix.Optimal++
		}
		return true
	}
	return false
}

// checkResponse applies the per-response contract: a known serving tier
// and every obfuscated location inside the spec's network domain.
func checkResponse(spec *serial.SolveSpec, nloc int, or *serial.ObfuscateResponse) string {
	switch or.Quality {
	case "", serial.QualityOptimal, serial.QualityIncumbent, serial.QualityFallback:
	default:
		return fmt.Sprintf("unknown serving tier %q", or.Quality)
	}
	if len(or.Locations) != nloc {
		return fmt.Sprintf("%d locations returned for %d requested", len(or.Locations), nloc)
	}
	const slack = 1e-9
	for i, l := range or.Locations {
		if l.Road < 0 || l.Road >= len(spec.Network.Edges) {
			return fmt.Sprintf("location %d on road %d outside [0, %d)", i, l.Road, len(spec.Network.Edges))
		}
		w := spec.Network.Edges[l.Road].Weight
		if math.IsNaN(l.FromStart) || l.FromStart < -slack || l.FromStart > w+slack {
			return fmt.Sprintf("location %d at offset %v outside road %d length %v", i, l.FromStart, l.Road, w)
		}
	}
	return ""
}

// scanFences refreshes the per-member fence observations and the
// fleet-wide high-water. A member's nonzero fencing token must never
// decrease: tokens only grow through the shared lease counter, so a
// regression means a stale process kept committing under an old term.
func (r *runner) scanFences() {
	for _, m := range r.members {
		if m.paused || m.killed {
			continue
		}
		f, err := m.fence()
		if err != nil || f == 0 {
			continue
		}
		if last := r.lastFence[m.index]; f < last {
			r.violate("member m%d fence token went backwards: %d -> %d", m.index, last, f)
		}
		r.lastFence[m.index] = f
		if f > r.fenceHigh {
			r.fenceHigh = f
		}
	}
}

// scrapeCounters sums the reachable members' /stats resilience
// counters at run end.
func (r *runner) scrapeCounters() Counters {
	var c Counters
	add := func(raw map[string]interface{}, key string, dst *uint64) {
		if v, ok := raw[key].(float64); ok {
			*dst += uint64(v)
		}
	}
	for _, m := range r.members {
		if m.paused || m.killed {
			continue
		}
		raw, err := m.rawStats()
		if err != nil {
			continue
		}
		add(raw, "solves", &c.Solves)
		add(raw, "store_writes", &c.StoreWrites)
		add(raw, "store_write_shed", &c.StoreWriteShed)
		add(raw, "quarantine_gc_bytes", &c.QuarantineGCBytes)
		add(raw, "corrupt_quarantined", &c.CorruptQuarantined)
		add(raw, "proxy_breaker_trips", &c.ProxyBreakerTrips)
		add(raw, "degraded_serves", &c.DegradedServes)
		add(raw, "lease_losses", &c.LeaseLosses)
		add(raw, "proxied_solves", &c.ProxiedSolves)
	}
	return c
}
