package chaos

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// goodReport is a minimal internally consistent BENCH_chaos.json
// payload; tests mutate copies of it to exercise each validator gate.
func goodReport() *Report {
	return &Report{
		GeneratedUnix: 1700000000,
		GoVersion:     "go1.22",
		Config: RunConfig{
			Procs:      3,
			Seed:       7,
			RateRPS:    15,
			LeaseTTLMs: 1000,
			Phases: []PhaseConfig{
				{Name: "baseline", DurationSec: 1.2},
				{Name: "disk-full", DurationSec: 1.2, FaultSpec: "store/write=enospc", Target: "all"},
				{Name: "leader-pause", DurationSec: 3.2, PauseLeader: true},
			},
		},
		Requests: 30,
		Phases: []PhaseResult{
			{Name: "baseline", Requests: 10, OK: 9, Shed: 1, RungMix: RungMix{Cached: 7, Optimal: 2}, FenceHighWater: 1},
			{Name: "disk-full", Requests: 10, OK: 10, RungMix: RungMix{Cached: 8, Optimal: 2}, FenceHighWater: 1},
			{Name: "leader-pause", Requests: 10, OK: 6, Tolerated: 4, RungMix: RungMix{Cached: 3, Fallback: 3}, FenceHighWater: 2},
		},
		FenceStart:         1,
		FenceEnd:           2,
		FailoverFenceBumps: 1,
		Counters:           Counters{Solves: 4, StoreWrites: 3, StoreWriteShed: 2},
		Audit:              AuditResult{Entries: 3, MaxGeoIViolation: 3e-12, ReplayClean: true},
		FailoverMs:         1480,
	}
}

func TestReportValidateAccepts(t *testing.T) {
	if err := goodReport().Validate(); err != nil {
		t.Fatalf("consistent report rejected: %v", err)
	}
}

func TestReportValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Report)
		want string
	}{
		{"missing stamp", func(r *Report) { r.GeneratedUnix = 0 }, "generated_unix"},
		{"missing go version", func(r *Report) { r.GoVersion = "" }, "go_version"},
		{"solo fleet", func(r *Report) { r.Config.Procs = 1 }, "fleet size"},
		{"zero rate", func(r *Report) { r.Config.RateRPS = 0 }, "non-positive rate"},
		{"no phases", func(r *Report) { r.Config.Phases = nil }, "no phases"},
		{"phase count mismatch", func(r *Report) { r.Phases = r.Phases[:2] }, "phase results"},
		{"phase name mismatch", func(r *Report) { r.Phases[1].Name = "renamed" }, "config says"},
		{"unreconciled outcomes", func(r *Report) { r.Phases[0].OK = 5 }, "do not reconcile"},
		{"rung mix mismatch", func(r *Report) { r.Phases[0].RungMix.Cached = 1 }, "rung mix sums"},
		{"fence regression", func(r *Report) { r.Phases[2].FenceHighWater = 0 }, "below predecessor"},
		{"request sum mismatch", func(r *Report) { r.Requests = 29 }, "sum to"},
		{"undercounted violations", func(r *Report) {
			r.Phases[0].OK, r.Phases[0].Violations = 8, 1
			r.Phases[0].RungMix.Cached = 6
		}, "violation_count"},
		{"fence end below start", func(r *Report) { r.FenceEnd = 0 }, "fence_end"},
		{"phantom fence bump", func(r *Report) { r.FailoverFenceBumps = 2 }, "leader-pause phases"},
		{"dirty replay marked clean", func(r *Report) { r.Audit.Quarantined = 1 }, "clean replay"},
		{"non-finite geo-i audit", func(r *Report) { r.Audit.MaxGeoIViolation = -1 }, "max_geoi_violation"},
		{"negative failover window", func(r *Report) { r.FailoverMs = -1 }, "failover_ms"},
		{"NaN failover window", func(r *Report) { r.FailoverMs = math.NaN() }, "failover_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := goodReport()
			tc.mut(rep)
			err := rep.Validate()
			if err == nil {
				t.Fatal("corrupted report accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateJSONStrict: the strict decoder rejects renamed fields and
// truncated files, and round-trips a good report.
func TestValidateJSONStrict(t *testing.T) {
	data, err := json.Marshal(goodReport())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateJSON(data); err != nil {
		t.Fatalf("round-trip rejected: %v", err)
	}
	if _, err := ValidateJSON(data[:len(data)/2]); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	renamed := strings.Replace(string(data), `"fence_start"`, `"fence_begin"`, 1)
	if _, err := ValidateJSON([]byte(renamed)); err == nil {
		t.Fatal("unknown field accepted — DisallowUnknownFields not in effect")
	}
}

// TestViolationDetailCap: the verbatim list stays bounded while the
// count keeps the full total.
func TestViolationDetailCap(t *testing.T) {
	r := &runner{cfg: &Config{Logf: func(string, ...interface{}) {}}}
	for i := 0; i < maxViolationDetail+10; i++ {
		r.violate("violation %d", i)
	}
	if r.violationCount != maxViolationDetail+10 {
		t.Fatalf("count %d, want %d", r.violationCount, maxViolationDetail+10)
	}
	if len(r.violations) != maxViolationDetail {
		t.Fatalf("detail list %d, want cap %d", len(r.violations), maxViolationDetail)
	}
}
