// Command vlpchaos runs the deterministic fleet chaos harness: it
// spawns an N-process vlpserved fleet over one shared store directory
// and drives a seeded request schedule through the standard fault
// phases — disk full, torn writes, stalled fsync, a paused leader
// whose lease expires under it, and a blackholed follower→leader proxy
// path — classifying every response against the availability contract
// and replaying the store from scratch at the end.
//
// Usage:
//
//	vlpchaos -bin ./vlpserved [-n 3] [-seed 1] [-rate 20]
//	         [-phase 2s] [-ttl 1s] [-poll ttl/5] [-timeout 3s]
//	         [-store-dir DIR] [-keep-store] [-v]
//	         [-out BENCH_chaos.json]
//	vlpchaos -check BENCH_chaos.json
//
// The run exits nonzero on any contract violation: a response outside
// {2xx, 429}, a timeout from a live member, an out-of-domain obfuscated
// location, a live member with no 2xx in a healthy phase, a digest
// solved more than once (or a follower cold-solve) before the first
// fault, a fencing-token regression, a leader pause that failed to
// bump the fleet's fence, or a dirty store replay. -check validates an
// existing report file through the same strict schema gate ci.sh uses
// (chaos.ValidateJSON) and runs nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/chaos"
)

func main() {
	bin := flag.String("bin", "", "vlpserved binary to spawn (required)")
	check := flag.String("check", "", "validate an existing BENCH_chaos.json and exit; runs nothing")
	n := flag.Int("n", 3, "fleet size")
	seed := flag.Int64("seed", 1, "request-schedule seed")
	rate := flag.Float64("rate", 20, "open-loop request rate per second")
	phase := flag.Duration("phase", 2*time.Second, "base duration of each fault phase")
	ttl := flag.Duration("ttl", time.Second, "fleet lease TTL")
	poll := flag.Duration("poll", 0, "fleet heartbeat cadence (0 = ttl/5)")
	timeout := flag.Duration("timeout", 0, "per-request client budget (0 = max(3s, 2×ttl))")
	storeDir := flag.String("store-dir", "", "shared store directory (empty = fresh temp dir)")
	keepStore := flag.Bool("keep-store", false, "keep the store directory for forensics instead of removing it")
	out := flag.String("out", "BENCH_chaos.json", "report output path")
	verbose := flag.Bool("v", false, "forward the children's stderr")
	flag.Parse()

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fatalf("%v", err)
		}
		if _, err := chaos.ValidateJSON(data); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "vlpchaos: %s passes the schema gate\n", *check)
		return
	}
	if *bin == "" {
		fatalf("-bin is required: point it at a vlpserved binary (go build ./cmd/vlpserved)")
	}

	dir := *storeDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "vlpchaos-store-"); err != nil {
			fatalf("store dir: %v", err)
		}
		if !*keepStore {
			defer os.RemoveAll(dir)
		}
	}

	cfg := chaos.Config{
		Bin:            *bin,
		StoreDir:       dir,
		Procs:          *n,
		Seed:           *seed,
		Rate:           *rate,
		TTL:            *ttl,
		Poll:           *poll,
		RequestTimeout: *timeout,
		Phases:         chaos.StandardPhases(*phase, *ttl),
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "vlpchaos: "+format+"\n", args...)
		},
	}
	if *verbose {
		cfg.ChildLog = os.Stderr
	}

	rep, err := chaos.Run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	rep.GeneratedUnix = time.Now().Unix()
	rep.GoVersion = runtime.Version()
	if err := rep.Validate(); err != nil {
		fatalf("emitted report fails its own schema gate: %v", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("vlpchaos: %d requests over %d phases, fence %d → %d (%d failover bumps)\n",
		rep.Requests, len(rep.Phases), rep.FenceStart, rep.FenceEnd, rep.FailoverFenceBumps)
	for _, p := range rep.Phases {
		fmt.Printf("  %-16s %4d req  %4d ok  %3d shed  %3d tolerated  %3d violations  %3d solves\n",
			p.Name, p.Requests, p.OK, p.Shed, p.Tolerated, p.Violations, p.Solves)
	}
	fmt.Printf("  counters: %d solves, %d writes, %d shed writes, %d breaker trips, %d lease losses\n",
		rep.Counters.Solves, rep.Counters.StoreWrites, rep.Counters.StoreWriteShed,
		rep.Counters.ProxyBreakerTrips, rep.Counters.LeaseLosses)
	fmt.Printf("  audit: %d entries, %d checkpoints, %d quarantined, max Geo-I violation %.3g\n",
		rep.Audit.Entries, rep.Audit.Checkpoints, rep.Audit.Quarantined, rep.Audit.MaxGeoIViolation)
	fmt.Printf("  report: %s\n", *out)

	if rep.ViolationCount > 0 || !rep.Audit.ReplayClean {
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "vlpchaos: VIOLATION: %s\n", v)
		}
		fatalf("%d contract violations (replay clean: %v)", rep.ViolationCount, rep.Audit.ReplayClean)
	}
	fmt.Println("  contract held: zero violations, replay clean")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vlpchaos: "+format+"\n", args...)
	os.Exit(1)
}
