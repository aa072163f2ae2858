#!/bin/sh
# Tier-1+ gate. The first four commands are the fast tier-1 check
# (build, vet, vlplint, tests); the race pass re-runs every test under
# the race detector and is what guards the concurrent obfuscation
# service (internal/server) and the parallel column-generation pricing.
# Expect the race pass to take a few minutes — internal/core dominates.
#
#   ./ci.sh         full gate
#   ./ci.sh -quick  build + vet + vlplint + lint-suite tests
#                   (pre-push sanity, well under a minute)
set -eux

go build ./...
go vet ./...
# Formatting gate: every Go file in the module must be gofmt-clean.
test -z "$(gofmt -l .)"

# Domain-invariant static analysis: cmd/vlplint enforces the solver's
# safety contracts (Geo-I repair gate, atomic stats, context plumbing,
# float tolerance, chaos-point coverage, kernel determinism, plus
# nilness/shadow) and the whole-program invariants (privtaint: no true
# location reaches a sink unsampled; lockorder: acyclic global lock
# graph including the lease flock; errflow: durable-I/O errors never
# dropped; goctx: every goroutine cancellable or joined). Zero findings
# against the checked-in (empty) baseline is a hard gate; the full
# finding list is emitted as the vlplint.json artifact either way. See
# DESIGN.md "Static analysis" for the invariant catalogue and the
# suppression directive.
go run ./cmd/vlplint -json -baseline lint.baseline.json ./... > vlplint.json || {
    cat vlplint.json
    exit 1
}

if [ "${1:-}" = "-quick" ]; then
    # The lint suite's own tests ride in -quick: the analyzers gate
    # every push, so a broken // want expectation or a regressed taint
    # summary must surface in the pre-push check, not the full gate.
    go test ./internal/lint/...
    exit 0
fi

go test ./...
go test -race ./...

# Chaos gate: the fault-injection suite must hold the Geo-I guarantee
# under injected errors/panics/stalls at every solver site, with the
# race detector watching the degradation ladder's locks — and, for the
# durable store, under injected write/fsync/rename/read failures. The
# breaker and ENOSPC-shed suites guard the two serving-path fault
# latches (blackholed leader proxy, full disk) under -race.
go test -race -run 'TestChaos|TestBreaker' ./internal/server
go test -race -run 'TestStore' ./internal/server ./internal/store

# Kill-and-restart recovery gate: a real vlpserved process is SIGKILLed
# after a solve and again mid-solve; its successor over the same store
# directory must serve the finished mechanism with zero cold solves and
# complete the interrupted one from its checkpoint.
go test -count=1 -run 'TestKillRestartRecovery' ./cmd/vlpserved

# In-process lease/fence protocol tests under -race; the multi-process
# kill-the-leader gate runs after the chaos gate below.
go test -race -run 'TestFleet|TestLease' ./internal/server ./internal/store

# Fleet chaos gate: a ~15s seeded vlpchaos run — three real vlpserved
# processes share a store while the harness walks the standard fault
# schedule (disk full, torn writes, stalled fsync, SIGSTOP'd leader,
# blackholed proxy). Hard-fails on any invariant violation: a response
# outside {2xx, 429}, a timeout from a live member, an out-of-domain
# location, a live member with no 2xx in a healthy phase, a second
# solve of a digest (or a follower cold-solve) before the first fault,
# a fencing-token regression, a pause that failed to fence the old
# leader out, or a dirty store replay. The test also requires the
# healthy baseline to keep up with two thirds of its open-loop schedule
# and to serve from cache. The emitted report is archived as
# BENCH_chaos.json.
VLP_CHAOS_OUT="$PWD/BENCH_chaos.json" go test -count=1 -run 'TestChaosSmoke' ./cmd/vlpchaos

# Kill-the-leader failover gate: three real vlpserved processes share a
# store in -fleet mode; the lease-holding leader is SIGKILLed mid-solve
# and a follower must take over within one lease TTL with a bumped
# fencing token, resume the interrupted solve from its checkpoint, and
# keep the remaining follower on the proxy path (zero local cold
# solves). The measured window is stamped into BENCH_chaos.json as
# failover_ms, so this step must run after the chaos gate wrote it; the
# stamped file is then re-validated through the strict schema gate
# (chaos.ValidateJSON).
VLP_FAILOVER_OUT="$PWD/BENCH_chaos.json" go test -count=1 -run 'TestLeaderFailover' ./cmd/vlpserved
go run ./cmd/vlpchaos -check BENCH_chaos.json

# Admission/coalescing gate: the serving-tier invariants under the race
# detector — cached digests keep serving (and are never 429'd) while a
# deliberately slow cold solve holds every solve-pool slot, and a
# same-digest burst costs exactly one solve because singleflight gives
# it one flight and only the flight leader takes a solve-pool slot.
# These also run in the -race pass above; the explicit run keeps the
# gate legible and fails fast when the admission layer regresses.
go test -race -run 'TestAdmission|TestServeGate|TestCoalesce' ./internal/server

# Golden-digest gate: digests change only on purpose. The served wire
# bytes (SolveCG, EnforceGeoI, serial.WriteJSON) of the K12/K24/K44
# benchmark tiers and one heterogeneous-epsilon instance must hash to the
# checked-in SHA-256 table, at 1 and 4 pricing workers and at GOMAXPROCS
# 1 and 4. The pure-Go SYRK kernel's table is checked everywhere, the
# AVX2 kernel's table where the host supports it.
go test -count=1 -cpu 1,4 -run 'TestGoldenMechanismDigests' ./internal/lp

# Allocation-regression gate: the warm-start hot paths (persistent
# master re-solve, persistent pricing subproblems) and Dijkstra's typed
# heap carry AllocsPerRun budgets; run them without -race, whose
# instrumentation changes alloc counts. A failure here means a kernel
# started allocating per round (or per heap push).
go test -count=1 -run 'Allocs' ./internal/lp ./internal/core ./internal/roadnet

# Fuzz smoke: ten seconds per serial decoder, enough to catch a freshly
# introduced parsing crash without stalling the gate.
go test -fuzz=FuzzNetworkRoundTrip -fuzztime=10s -run '^$' ./internal/serial
go test -fuzz=FuzzMechanismRoundTrip -fuzztime=10s -run '^$' ./internal/serial
go test -fuzz=FuzzStoreDecode -fuzztime=10s -run '^$' ./internal/serial
