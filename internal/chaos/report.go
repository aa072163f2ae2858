// BENCH_chaos.json: the chaos harness's archived artifact. ci.sh
// re-validates the emitted file through the strict ValidateJSON below,
// so a field rename or a truncated write fails CI rather than silently
// producing an unparseable trajectory point.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// maxViolationDetail caps how many violation messages a report carries
// verbatim; ViolationCount is always the full count.
const maxViolationDetail = 32

// PhaseConfig records one configured phase, JSON-shaped for the report.
type PhaseConfig struct {
	Name        string  `json:"name"`
	DurationSec float64 `json:"duration_sec"`
	FaultSpec   string  `json:"fault_spec,omitempty"`
	Target      string  `json:"target,omitempty"`
	PauseLeader bool    `json:"pause_leader,omitempty"`
}

// RunConfig records the knobs that shaped a run.
type RunConfig struct {
	Procs      int           `json:"procs"`
	Seed       int64         `json:"seed"`
	RateRPS    float64       `json:"rate_rps"`
	LeaseTTLMs float64       `json:"lease_ttl_ms"`
	Phases     []PhaseConfig `json:"phases"`
}

// RungMix counts 2xx responses by serving rung during a phase.
type RungMix struct {
	Cached    int `json:"cached"`
	Optimal   int `json:"optimal"`
	Incumbent int `json:"incumbent"`
	Fallback  int `json:"fallback"`
}

// PhaseResult is the classified outcome of one phase's request slice.
// Requests always equals OK + Shed + Tolerated + Violations.
type PhaseResult struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	// OK counts 2xx responses that passed every per-response check.
	OK int `json:"ok_2xx"`
	// Shed counts 429 backpressure responses — allowed in every phase.
	Shed int `json:"shed_429"`
	// Tolerated counts transport timeouts to the paused member, the one
	// failure mode the availability contract excuses.
	Tolerated int `json:"tolerated_timeouts"`
	// Violations counts responses that broke the contract: any 5xx or
	// non-429 4xx, a timeout to a live member, an unknown serving tier,
	// or an out-of-domain obfuscated location.
	Violations int     `json:"violations"`
	RungMix    RungMix `json:"rung_mix"`
	// FenceHighWater is the fleet-wide fence maximum observed by the
	// end of the phase; it never decreases across phases.
	FenceHighWater uint64 `json:"fence_high_water"`
	// Solves is the fleet-wide /stats solve count at the end of the
	// phase, summed over the reachable members.
	Solves uint64 `json:"solves"`
}

// Counters sums the fleet's /stats resilience counters at run end.
type Counters struct {
	Solves             uint64 `json:"solves"`
	StoreWrites        uint64 `json:"store_writes"`
	StoreWriteShed     uint64 `json:"store_write_shed"`
	QuarantineGCBytes  uint64 `json:"quarantine_gc_bytes"`
	CorruptQuarantined uint64 `json:"corrupt_quarantined"`
	ProxyBreakerTrips  uint64 `json:"proxy_breaker_trips"`
	DegradedServes     uint64 `json:"degraded_serves"`
	LeaseLosses        uint64 `json:"lease_losses"`
	ProxiedSolves      uint64 `json:"proxied_solves"`
}

// AuditResult is the end-of-run store replay: a fresh Open + Scan of
// the shared directory after every process is dead, plus a Geo-I
// recheck of every committed mechanism against its own spec.
type AuditResult struct {
	Entries     int `json:"entries"`
	Checkpoints int `json:"checkpoints"`
	// Quarantined counts files the fresh scan had to move aside; any
	// nonzero value means a fault phase leaked a torn or corrupt commit.
	Quarantined int `json:"quarantined"`
	// MaxGeoIViolation is the largest (ε, r)-Geo-I constraint violation
	// across all replayed mechanisms; it must stay within tolerance.
	MaxGeoIViolation float64 `json:"max_geoi_violation"`
	// ReplayClean is true when the scan quarantined nothing and every
	// entry decoded, validated and passed the Geo-I recheck.
	ReplayClean bool `json:"replay_clean"`
}

// Report is the BENCH_chaos.json payload. GeneratedUnix and GoVersion
// are stamped by the caller — this package never reads the wall clock
// for the artifact.
type Report struct {
	GeneratedUnix int64     `json:"generated_unix"`
	GoVersion     string    `json:"go_version"`
	Config        RunConfig `json:"config"`

	// Requests counts driver requests across all phases (warmup solves
	// are excluded); it equals the sum of the per-phase counts.
	Requests int           `json:"requests"`
	Phases   []PhaseResult `json:"phases"`

	// ViolationCount is the full number of contract violations;
	// Violations carries at most maxViolationDetail of them verbatim.
	ViolationCount int      `json:"violation_count"`
	Violations     []string `json:"violations,omitempty"`

	// FenceStart/FenceEnd bracket the fleet's fence high-water;
	// FailoverFenceBumps counts leader-pause phases that forced the
	// high-water up (each one is an observed fenced failover).
	FenceStart         uint64 `json:"fence_start"`
	FenceEnd           uint64 `json:"fence_end"`
	FailoverFenceBumps int    `json:"failover_fence_bumps"`

	Counters Counters    `json:"counters"`
	Audit    AuditResult `json:"audit"`

	// FailoverMs is the kill-the-leader failover window (SIGKILL of the
	// lease holder to its successor's first optimal serve), stamped by
	// cmd/vlpserved's TestLeaderFailover when VLP_FAILOVER_OUT names
	// this file. Zero (omitted) means unmeasured.
	FailoverMs float64 `json:"failover_ms,omitempty"`
}

// Validate is the checked-in schema gate for BENCH_chaos.json.
func (r *Report) Validate() error {
	if r.GeneratedUnix <= 0 {
		return fmt.Errorf("chaos: report missing generated_unix stamp")
	}
	if r.GoVersion == "" {
		return fmt.Errorf("chaos: report missing go_version stamp")
	}
	if r.Config.Procs < 2 {
		return fmt.Errorf("chaos: report config has fleet size %d, want >= 2", r.Config.Procs)
	}
	if !(r.Config.RateRPS > 0) || !(r.Config.LeaseTTLMs > 0) {
		return fmt.Errorf("chaos: report config has non-positive rate (%v) or lease TTL (%v)",
			r.Config.RateRPS, r.Config.LeaseTTLMs)
	}
	if len(r.Config.Phases) == 0 {
		return fmt.Errorf("chaos: report config has no phases")
	}
	pauses := 0
	for i, p := range r.Config.Phases {
		if p.Name == "" || !(p.DurationSec > 0) {
			return fmt.Errorf("chaos: config phase %d missing name or positive duration", i)
		}
		if p.PauseLeader {
			pauses++
		}
	}
	if len(r.Phases) != len(r.Config.Phases) {
		return fmt.Errorf("chaos: report has %d phase results for %d configured phases",
			len(r.Phases), len(r.Config.Phases))
	}
	total, violations := 0, 0
	var prevFence uint64
	for i, p := range r.Phases {
		if p.Name != r.Config.Phases[i].Name {
			return fmt.Errorf("chaos: phase result %d named %q, config says %q", i, p.Name, r.Config.Phases[i].Name)
		}
		if p.Requests < 0 || p.OK < 0 || p.Shed < 0 || p.Tolerated < 0 || p.Violations < 0 {
			return fmt.Errorf("chaos: phase %q has a negative count: %+v", p.Name, p)
		}
		if p.OK+p.Shed+p.Tolerated+p.Violations != p.Requests {
			return fmt.Errorf("chaos: phase %q outcomes (%d+%d+%d+%d) do not reconcile with %d requests",
				p.Name, p.OK, p.Shed, p.Tolerated, p.Violations, p.Requests)
		}
		m := p.RungMix
		if m.Cached < 0 || m.Optimal < 0 || m.Incumbent < 0 || m.Fallback < 0 {
			return fmt.Errorf("chaos: phase %q rung mix has a negative count: %+v", p.Name, m)
		}
		if m.Cached+m.Optimal+m.Incumbent+m.Fallback != p.OK {
			return fmt.Errorf("chaos: phase %q rung mix sums to %d, has %d 2xx",
				p.Name, m.Cached+m.Optimal+m.Incumbent+m.Fallback, p.OK)
		}
		if p.FenceHighWater < prevFence {
			return fmt.Errorf("chaos: phase %q fence high-water %d below predecessor's %d",
				p.Name, p.FenceHighWater, prevFence)
		}
		prevFence = p.FenceHighWater
		total += p.Requests
		violations += p.Violations
	}
	if total != r.Requests {
		return fmt.Errorf("chaos: phase requests sum to %d, report has %d", total, r.Requests)
	}
	if r.ViolationCount < violations {
		return fmt.Errorf("chaos: violation_count %d below the per-phase sum %d", r.ViolationCount, violations)
	}
	if len(r.Violations) > maxViolationDetail {
		return fmt.Errorf("chaos: %d verbatim violations exceed the %d cap", len(r.Violations), maxViolationDetail)
	}
	if len(r.Violations) > r.ViolationCount {
		return fmt.Errorf("chaos: %d verbatim violations exceed violation_count %d", len(r.Violations), r.ViolationCount)
	}
	if r.FenceEnd < r.FenceStart {
		return fmt.Errorf("chaos: fence_end %d below fence_start %d", r.FenceEnd, r.FenceStart)
	}
	if r.FailoverFenceBumps < 0 || r.FailoverFenceBumps > pauses {
		return fmt.Errorf("chaos: %d failover fence bumps for %d leader-pause phases", r.FailoverFenceBumps, pauses)
	}
	a := r.Audit
	if a.Entries < 0 || a.Checkpoints < 0 || a.Quarantined < 0 {
		return fmt.Errorf("chaos: audit has a negative count: %+v", a)
	}
	if a.MaxGeoIViolation < 0 || math.IsNaN(a.MaxGeoIViolation) || math.IsInf(a.MaxGeoIViolation, 0) {
		return fmt.Errorf("chaos: audit max_geoi_violation %v is not a non-negative finite value", a.MaxGeoIViolation)
	}
	if a.ReplayClean && a.Quarantined != 0 {
		return fmt.Errorf("chaos: audit claims a clean replay with %d quarantined files", a.Quarantined)
	}
	if r.FailoverMs < 0 || math.IsNaN(r.FailoverMs) || math.IsInf(r.FailoverMs, 0) {
		return fmt.Errorf("chaos: failover_ms %v is not a non-negative finite value", r.FailoverMs)
	}
	return nil
}

// ValidateJSON decodes data strictly (unknown fields rejected, so a
// field rename cannot slip through as an always-zero value) and applies
// Validate. This is the check ci.sh runs against the emitted file.
func ValidateJSON(data []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("chaos: malformed BENCH_chaos.json: %w", err)
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return &rep, nil
}
