package chaos

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serial"
)

// TestStandardPhasesShape: the canonical schedule covers the three
// acceptance faults (disk full, leader pause, proxy blackhole), keeps
// names unique, and sizes the pause to outlive the lease.
func TestStandardPhasesShape(t *testing.T) {
	ttl := time.Second
	phases := StandardPhases(1200*time.Millisecond, ttl)
	names := map[string]bool{}
	var pause *Phase
	faults := 0
	for i := range phases {
		ph := &phases[i]
		if names[ph.Name] {
			t.Fatalf("duplicate phase name %q", ph.Name)
		}
		names[ph.Name] = true
		if ph.Duration <= 0 {
			t.Fatalf("phase %q has non-positive duration", ph.Name)
		}
		if ph.FaultSpec != "" || ph.PauseLeader {
			faults++
		}
		if ph.PauseLeader {
			pause = ph
		}
	}
	for _, want := range []string{"disk-full", "leader-pause", "proxy-blackhole"} {
		if !names[want] {
			t.Fatalf("standard schedule missing the %q phase", want)
		}
	}
	if faults < 3 {
		t.Fatalf("only %d fault phases, want >= 3", faults)
	}
	if pause == nil || pause.Duration <= 2*ttl {
		t.Fatalf("leader pause %v does not outlive the %v lease with margin", pause.Duration, ttl)
	}
	if phases[0].FaultSpec != "" || phases[len(phases)-1].FaultSpec != "" {
		t.Fatal("schedule must start and end with a healthy phase")
	}
}

// TestChaosSpecDeterminism: the spec generator is a pure function of
// (seed, index) — same inputs give the same digest, different indices
// give distinct cold work.
func TestChaosSpecDeterminism(t *testing.T) {
	a, b := chaosSpec(7, 0), chaosSpec(7, 0)
	if a.Digest() != b.Digest() {
		t.Fatal("same (seed, index) produced different digests")
	}
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		d := chaosSpec(7, i).Digest()
		if seen[d] {
			t.Fatalf("spec index %d repeats an earlier digest", i)
		}
		seen[d] = true
	}
	if chaosSpec(8, 0).Digest() == chaosSpec(7, 0).Digest() {
		t.Fatal("different seeds produced the same spec")
	}
	if err := chaosSpec(7, 3).Validate(); err != nil {
		t.Fatalf("generated spec invalid: %v", err)
	}
}

// TestRandomLocsInDomain: every generated true location must be a
// valid request the server cannot 4xx.
func TestRandomLocsInDomain(t *testing.T) {
	spec := chaosSpec(1, 0)
	rng := phaseRNG(1, 0)
	for _, l := range randomLocs(rng, spec, 64) {
		if l.Road < 0 || l.Road >= len(spec.Network.Edges) {
			t.Fatalf("road %d outside [0, %d)", l.Road, len(spec.Network.Edges))
		}
		if w := spec.Network.Edges[l.Road].Weight; l.FromStart < 0 || l.FromStart > w {
			t.Fatalf("offset %v outside road length %v", l.FromStart, w)
		}
	}
}

// TestConfigDefaults: zero values resolve to the documented defaults
// and impossible configs are rejected up front.
func TestConfigDefaults(t *testing.T) {
	cfg := Config{Bin: "/bin/true", StoreDir: "/tmp/x", Phases: []Phase{{Name: "p", Duration: time.Second}}}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.Procs != 3 || cfg.Rate != 20 || cfg.TTL != time.Second || cfg.Poll != 200*time.Millisecond {
		t.Fatalf("defaults: procs=%d rate=%v ttl=%v poll=%v", cfg.Procs, cfg.Rate, cfg.TTL, cfg.Poll)
	}
	if cfg.RequestTimeout != 3*time.Second {
		t.Fatalf("request timeout default %v, want 3s", cfg.RequestTimeout)
	}
	for _, bad := range []Config{
		{StoreDir: "d", Phases: []Phase{{Name: "p", Duration: time.Second}}},
		{Bin: "b", Phases: []Phase{{Name: "p", Duration: time.Second}}},
		{Bin: "b", StoreDir: "d"},
		{Bin: "b", StoreDir: "d", Phases: []Phase{{Name: "", Duration: time.Second}}},
		{Bin: "b", StoreDir: "d", Procs: 1, Phases: []Phase{{Name: "p", Duration: time.Second}}},
	} {
		if err := bad.defaults(); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
}

// TestCheckResponse: the per-response classifier rejects out-of-domain
// locations, wrong batch sizes and unknown tiers, and accepts the
// shapes the server actually emits.
func TestCheckResponse(t *testing.T) {
	spec := chaosSpec(1, 0)
	w := spec.Network.Edges[0].Weight
	ok := func() *serial.ObfuscateResponse {
		return &serial.ObfuscateResponse{
			Quality:   serial.QualityOptimal,
			Locations: []serial.Loc{{Road: 0, FromStart: w / 2}},
		}
	}
	if msg := checkResponse(spec, 1, ok()); msg != "" {
		t.Fatalf("valid response rejected: %s", msg)
	}
	cached := ok()
	cached.Cached, cached.Quality = true, ""
	if msg := checkResponse(spec, 1, cached); msg != "" {
		t.Fatalf("cached pre-tier response rejected: %s", msg)
	}
	bad := ok()
	bad.Quality = "experimental"
	if checkResponse(spec, 1, bad) == "" {
		t.Fatal("unknown tier accepted")
	}
	bad = ok()
	bad.Locations[0].Road = len(spec.Network.Edges)
	if checkResponse(spec, 1, bad) == "" {
		t.Fatal("out-of-range road accepted")
	}
	bad = ok()
	bad.Locations[0].FromStart = w * 2
	if checkResponse(spec, 1, bad) == "" {
		t.Fatal("off-road offset accepted")
	}
	if checkResponse(spec, 2, ok()) == "" {
		t.Fatal("short batch accepted")
	}
}

// okOutcome is a valid single-location 2xx from member m for spec.
func okOutcome(t *testing.T, m int, spec *serial.SolveSpec) outcome {
	t.Helper()
	body, err := json.Marshal(&serial.ObfuscateResponse{
		Cached:    true,
		Locations: []serial.Loc{{Road: 0, FromStart: spec.Network.Edges[0].Weight / 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return outcome{member: m, spec: spec, nloc: 1, status: http.StatusOK, body: body}
}

// TestClassifyPhaseMemberServed: in a healthy phase a live member that
// answered no 2xx is a violation even though each of its responses (a
// 429) is allowed on its own; a fault phase excuses it, and a member
// that served once satisfies the rule.
func TestClassifyPhaseMemberServed(t *testing.T) {
	spec := chaosSpec(1, 0)
	newRunner := func() *runner {
		return &runner{
			cfg:     &Config{Logf: func(string, ...interface{}) {}},
			members: []*member{{index: 0}, {index: 1}, {index: 2}},
		}
	}
	starved := []outcome{
		okOutcome(t, 0, spec), okOutcome(t, 1, spec),
		{member: 2, spec: spec, nloc: 1, status: http.StatusTooManyRequests},
	}

	r := newRunner()
	res := PhaseResult{Name: "baseline"}
	r.classifyPhase(&res, Phase{Name: "baseline", Duration: time.Second}, -1, starved)
	if res.Requests != 3 || res.OK != 2 || res.Shed != 1 || res.Violations != 0 {
		t.Fatalf("per-response classification %+v, want 2 ok + 1 shed", res)
	}
	if r.violationCount != 1 || !strings.Contains(r.violations[0], "m2 answered no 2xx") {
		t.Fatalf("starved member not flagged: count %d, %q", r.violationCount, r.violations)
	}

	r = newRunner()
	res = PhaseResult{Name: "disk-full"}
	r.classifyPhase(&res, Phase{Name: "disk-full", Duration: time.Second, FaultSpec: "store/write=enospc"}, -1, starved)
	if r.violationCount != 0 {
		t.Fatalf("fault phase flagged a starved member: %q", r.violations)
	}

	r = newRunner()
	res = PhaseResult{Name: "recovery"}
	r.classifyPhase(&res, Phase{Name: "recovery", Duration: time.Second}, -1, append(starved, okOutcome(t, 2, spec)))
	if r.violationCount != 0 {
		t.Fatalf("every member served, still flagged: %q", r.violations)
	}
}

// TestCheckSolvesOnePerDigest: before the first fault phase the fleet
// must have solved each requested digest exactly once; from the first
// fault on, re-solves are legitimate and the rule stays off even in
// later healthy phases.
func TestCheckSolvesOnePerDigest(t *testing.T) {
	r := &runner{
		cfg:       &Config{Logf: func(string, ...interface{}) {}},
		requested: map[string]bool{"a": true, "b": true, "c": true},
	}
	healthy := Phase{Name: "baseline", Duration: time.Second}
	r.checkSolves(&PhaseResult{Name: "baseline", Solves: 3}, healthy)
	if r.violationCount != 0 {
		t.Fatalf("one solve per digest flagged: %q", r.violations)
	}
	r.checkSolves(&PhaseResult{Name: "baseline", Solves: 4}, healthy)
	if r.violationCount != 1 {
		t.Fatalf("a second solve of a digest went unflagged (count %d)", r.violationCount)
	}
	r.checkSolves(&PhaseResult{Name: "leader-pause", Solves: 6}, Phase{Name: "leader-pause", Duration: time.Second, PauseLeader: true})
	r.checkSolves(&PhaseResult{Name: "recovery", Solves: 7}, healthy)
	if r.violationCount != 1 {
		t.Fatalf("rule still applied after the first fault phase (count %d): %q", r.violationCount, r.violations)
	}
}
