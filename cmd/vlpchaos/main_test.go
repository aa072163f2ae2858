package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestChaosSmoke is the CI chaos gate: a real 3-process vlpserved
// fleet runs the standard fault schedule at a bounded scale (~15s) and
// the availability contract must hold exactly — every response 2xx or
// 429 (timeouts only from the paused leader), every 2xx in-domain,
// every live member serving in each healthy phase, one solve per
// digest until the first fault, fencing tokens only ever up, ENOSPC
// shedding writes instead of requests, the leader a pause promotes
// resuming a warmup network from its pool checkpoint, and a byte-clean
// store replay at the end. The healthy baseline must also keep up with its open-loop
// schedule and serve from cache. The emitted report must pass the
// strict BENCH_chaos.json schema gate; set VLP_CHAOS_OUT to archive it.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and pauses real server processes")
	}
	bin := filepath.Join(t.TempDir(), "vlpserved")
	build := exec.Command("go", "build", "-o", bin, "../vlpserved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ../vlpserved: %v\n%s", err, out)
	}

	ttl := time.Second
	rep, err := chaos.Run(chaos.Config{
		Bin:      bin,
		StoreDir: t.TempDir(),
		Procs:    3,
		Seed:     7,
		Rate:     15,
		TTL:      ttl,
		Phases:   chaos.StandardPhases(1200*time.Millisecond, ttl),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}

	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.ViolationCount != 0 {
		t.Fatalf("%d contract violations", rep.ViolationCount)
	}
	if !rep.Audit.ReplayClean {
		t.Fatalf("store replay not clean: %+v", rep.Audit)
	}
	if rep.Audit.Entries < 2 {
		t.Fatalf("replay found %d entries, want >= 2 (warmup snapshots)", rep.Audit.Entries)
	}
	if rep.Audit.Checkpoints < 2 {
		t.Fatalf("replay found %d pool checkpoints, want >= 2 (one per warmup network)", rep.Audit.Checkpoints)
	}
	if rep.FailoverFenceBumps != 1 {
		t.Fatalf("%d failover fence bumps, want 1 (one leader-pause phase)", rep.FailoverFenceBumps)
	}
	if rep.FenceEnd <= rep.FenceStart {
		t.Fatalf("fence high-water %d → %d: the paused leader was never fenced out", rep.FenceStart, rep.FenceEnd)
	}
	if rep.Counters.StoreWriteShed == 0 {
		t.Error("disk-full phase shed no writes: the ENOSPC degradation path never ran")
	}
	if rep.Requests == 0 {
		t.Fatal("driver dispatched no requests")
	}

	// The healthy baseline: the open-loop dispatcher kept up with at
	// least two thirds of its schedule, the warm pool served from cache,
	// and the fleet solved each of the three digests requested so far
	// (two warmup specs plus the phase's fresh spec) exactly once — the
	// leader solved, the followers never cold-solved.
	base := rep.Phases[0]
	if want := int(2 * rep.Config.RateRPS * rep.Config.Phases[0].DurationSec / 3); base.Requests < want {
		t.Fatalf("baseline dispatched %d requests, want >= %d: the open-loop dispatcher fell behind", base.Requests, want)
	}
	if base.RungMix.Cached == 0 {
		t.Fatalf("no cached serves in the baseline after warmup; rung mix %+v", base.RungMix)
	}
	if base.Solves != 3 {
		t.Fatalf("fleet ran %d solves by the end of the baseline, want 3 (one per digest)", base.Solves)
	}

	rep.GeneratedUnix = time.Now().Unix()
	rep.GoVersion = runtime.Version()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chaos.ValidateJSON(data); err != nil {
		t.Fatalf("emitted report fails the schema gate: %v", err)
	}
	if out := os.Getenv("VLP_CHAOS_OUT"); out != "" {
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("chaos report archived to %s", out)
	}
}
