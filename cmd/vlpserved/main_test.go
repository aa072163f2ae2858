package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/roadnet"
	"repro/internal/serial"
)

// buildServed compiles the vlpserved binary once per test run.
func buildServed(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vlpserved")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a listen address for a child process. The port is
// released before the child binds it — a benign race in a test that owns
// the machine's ephemeral range for milliseconds.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// served is one vlpserved child process under test control.
type served struct {
	t    *testing.T
	cmd  *exec.Cmd
	addr string
}

func startServed(t *testing.T, bin, addr string, args ...string) *served {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s := &served{t: t, cmd: cmd, addr: addr}
	t.Cleanup(func() { s.kill() })
	s.waitHealthy()
	return s
}

func (s *served) kill() {
	if s.cmd.Process != nil {
		_ = s.cmd.Process.Signal(syscall.SIGKILL)
		_, _ = s.cmd.Process.Wait()
	}
}

func (s *served) url(path string) string { return "http://" + s.addr + path }

func (s *served) waitHealthy() {
	s.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.url("/healthz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.t.Fatal("vlpserved never became healthy")
}

// stats fetches and decodes GET /stats into a loose map.
func (s *served) stats() map[string]float64 {
	s.t.Helper()
	resp, err := http.Get(s.url("/stats"))
	if err != nil {
		s.t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		s.t.Fatal(err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// waitStat polls /stats until counter ≥ want.
func (s *served) waitStat(counter string, want float64, timeout time.Duration) {
	s.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.stats()[counter] >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.t.Fatalf("%s never reached %v (have %v)", counter, want, s.stats()[counter])
}

// solveSpec posts spec to /solve and returns the decoded response.
func (s *served) solveSpec(spec *serial.SolveSpec, timeout time.Duration) (map[string]interface{}, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		s.t.Fatal(err)
	}
	client := &http.Client{Timeout: timeout}
	resp, err := client.Post(s.url("/solve"), "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

func quickSpec(t *testing.T) *serial.SolveSpec {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	net := serial.FromGraph(roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3}))
	return &serial.SolveSpec{Network: net, Delta: 0.3, Epsilon: 5}
}

// slowSpec is sized so an exact solve takes a couple of seconds across
// dozens of CG rounds — wide enough a SIGKILL reliably lands mid-solve.
func slowSpec(t *testing.T) *serial.SolveSpec {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	net := serial.FromGraph(roadnet.Grid(rng, roadnet.GridConfig{
		Rows: 3, Cols: 3, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	}))
	return &serial.SolveSpec{Network: net, Delta: 0.15, Epsilon: 5, Exact: true}
}

// TestKillRestartRecovery is the end-to-end crash suite: a vlpserved
// process is SIGKILLed — once after completing a solve, once in the
// middle of one — and its successor over the same store directory must
// serve the completed mechanism without a cold solve and finish the
// interrupted solve from its checkpoint.
func TestKillRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real server processes")
	}
	bin := buildServed(t)
	dir := t.TempDir()
	spec := quickSpec(t)

	// Life 1: solve, confirm the snapshot is durable, die without warning.
	s1 := startServed(t, bin, freeAddr(t), "-store-dir", dir)
	first, err := s1.solveSpec(spec, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s1.waitStat("store_writes", 1, 10*time.Second)
	s1.kill()

	// Life 2: the same spec must be served warm from disk — zero solves.
	s2 := startServed(t, bin, freeAddr(t), "-store-dir", dir)
	second, err := s2.solveSpec(spec, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.stats()
	if st["solves"] != 0 {
		t.Fatalf("warm restart ran %v solves, want 0", st["solves"])
	}
	if st["store_loads"] < 1 {
		t.Fatalf("store_loads = %v, want ≥ 1", st["store_loads"])
	}
	if first["etdd"] != second["etdd"] {
		t.Fatalf("served ETDD changed across restart: %v → %v", first["etdd"], second["etdd"])
	}
	if first["key"] != second["key"] {
		t.Fatalf("digest changed across restart: %v → %v", first["key"], second["key"])
	}

	// Life 2, part two: start a slow exact solve, kill mid-run as soon as
	// a checkpoint is durable.
	slow := slowSpec(t)
	go func() {
		// The request dies with the process; the solve's progress is the
		// checkpoint file, not the response.
		_, _ = s2.solveSpec(slow, 5*time.Minute)
	}()
	s2.waitStat("checkpoint_writes", 1, time.Minute)
	s2.kill()

	// Life 3: the interrupted solve is recovered and finished in the
	// background; the quick spec still serves warm alongside it.
	s3 := startServed(t, bin, freeAddr(t), "-store-dir", dir)
	s3.waitStat("recovered_solves", 1, 10*time.Second)
	if _, err := s3.solveSpec(spec, time.Minute); err != nil {
		t.Fatal(err)
	}
	s3.waitStat("store_writes", 1, 2*time.Minute) // recovered solve persisted optimal
	st = s3.stats()
	if st["solves"] != 0 {
		t.Fatalf("restart cold-solved %v specs, want 0 (recovery is background, quick spec is warm)", st["solves"])
	}
	// The recovered mechanism is served from cache without any new solve.
	res, err := s3.solveSpec(slow, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res["cached"] != true {
		t.Fatal("recovered solve not served from cache")
	}
	if q, ok := res["quality"].(string); ok && q != "" && q != serial.QualityOptimal {
		t.Fatalf("recovered solve served tier %q, want optimal", q)
	}
}

// rawStats fetches GET /stats without dropping non-numeric fields.
func (s *served) rawStats() map[string]interface{} {
	s.t.Helper()
	resp, err := http.Get(s.url("/stats"))
	if err != nil {
		s.t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		s.t.Fatal(err)
	}
	return raw
}

// leaseState reads the instance's fleet role from /stats.
func (s *served) leaseState() string {
	v, _ := s.rawStats()["lease_state"].(string)
	return v
}

// startFleetMember launches one vlpserved -fleet process over dir with
// a short lease so failover tests run in seconds.
func startFleetMember(t *testing.T, bin, dir, name string) *served {
	t.Helper()
	addr := freeAddr(t)
	return startServed(t, bin, addr,
		"-store-dir", dir, "-fleet",
		"-instance", name,
		"-advertise", "http://"+addr,
		"-lease-ttl", "1s", "-fleet-poll", "200ms")
}

// TestLeaderFailover is the kill-the-leader suite: three real vlpserved
// processes share one store directory; the leader is SIGKILLed in the
// middle of a checkpointing solve; a follower must win the election
// within roughly one lease TTL, re-enqueue the interrupted solve from
// its durable checkpoint, and finish it — while the remaining follower
// keeps serving by proxying cold specs to the new leader.
func TestLeaderFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real server processes")
	}
	bin := buildServed(t)
	dir := t.TempDir()

	s1 := startFleetMember(t, bin, dir, "m1")
	s2 := startFleetMember(t, bin, dir, "m2")
	s3 := startFleetMember(t, bin, dir, "m3")

	if got := s1.leaseState(); got != "leader" {
		t.Fatalf("first member lease_state = %q, want leader", got)
	}
	for _, f := range []*served{s2, s3} {
		if got := f.leaseState(); got != "follower" {
			t.Fatalf("late member lease_state = %q, want follower", got)
		}
	}

	// Kill the leader mid-solve, as soon as a checkpoint is durable.
	slow := slowSpec(t)
	go func() { _, _ = s1.solveSpec(slow, 5*time.Minute) }()
	s1.waitStat("checkpoint_writes", 1, time.Minute)
	killedAt := time.Now()
	s1.kill()

	// A follower is elected within ~TTL and its promotion re-enqueues
	// the dead leader's interrupted solve.
	var leader, follower *served
	deadline := time.Now().Add(15 * time.Second)
	for leader == nil && time.Now().Before(deadline) {
		for _, c := range []*served{s2, s3} {
			if c.leaseState() == "leader" {
				leader = c
			} else {
				follower = c
			}
		}
		if leader == nil {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if leader == nil || follower == nil {
		t.Fatalf("no follower took over: m2=%q m3=%q", s2.leaseState(), s3.leaseState())
	}
	if fence := leader.stats()["fence_token"]; fence < 2 {
		t.Fatalf("new leader fence_token = %v, want ≥ 2 (takeover bumps)", fence)
	}
	leader.waitStat("recovered_solves", 1, 10*time.Second)
	// The re-enqueued solve finishes in the background and commits under
	// the new fence.
	leader.waitStat("store_writes", 1, 2*time.Minute)
	res, err := leader.solveSpec(slow, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := res["quality"].(string); ok && q != "" && q != serial.QualityOptimal {
		t.Fatalf("recovered solve served tier %q, want optimal", q)
	}
	// The failover window: SIGKILL of the lease holder to the first
	// optimal-tier serve by its successor — election, checkpoint
	// recovery, and the recommit all inside it.
	failover := time.Since(killedAt)
	t.Logf("failover window: SIGKILL -> first optimal serve in %v", failover)
	recordFailover(t, failover)

	// The remaining follower never solves: a cold spec is proxied to the
	// new leader and read back through the store.
	if _, err := follower.solveSpec(quickSpec(t), time.Minute); err != nil {
		t.Fatal(err)
	}
	fst := follower.stats()
	if fst["solves"] != 0 {
		t.Fatalf("follower ran %v solves, want 0", fst["solves"])
	}
	if fst["proxied_solves"] < 1 {
		t.Fatalf("proxied_solves = %v, want ≥ 1", fst["proxied_solves"])
	}
	if fst["store_writes"] != 0 {
		t.Fatalf("follower committed %v snapshots, want 0 (single writer)", fst["store_writes"])
	}
}

// recordFailover stamps the measured failover window into the
// BENCH_chaos.json named by VLP_FAILOVER_OUT, re-validating the file
// through the same strict schema gate vlpchaos -check applies. ci.sh
// sets the env var right after the chaos gate has written the report;
// without it the test just logs the measurement.
func recordFailover(t *testing.T, d time.Duration) {
	t.Helper()
	path := os.Getenv("VLP_FAILOVER_OUT")
	if path == "" {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("VLP_FAILOVER_OUT: %v", err)
	}
	rep, err := chaos.ValidateJSON(data)
	if err != nil {
		t.Fatalf("VLP_FAILOVER_OUT %s is not a valid BENCH_chaos.json: %v", path, err)
	}
	rep.FailoverMs = float64(d) / float64(time.Millisecond)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chaos.ValidateJSON(out); err != nil {
		t.Fatalf("stamped report failed the schema gate: %v", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("stamped failover_ms=%.1f into %s", rep.FailoverMs, path)
}
