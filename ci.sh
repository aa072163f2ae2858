#!/bin/sh
# Tier-1+ gate. The first four commands are the fast tier-1 check
# (build, vet, vlplint, tests); the race pass re-runs every test under
# the race detector and is what guards the concurrent obfuscation
# service (internal/server) and the parallel column-generation pricing.
# Expect the race pass to take a few minutes — internal/core dominates.
#
#   ./ci.sh         full gate
#   ./ci.sh -quick  build + vet (host and arm64) + vlplint + perfbench vet/tests +
#                   the vlpbench ledger smoke +
#                   lint-suite tests + the lp digest/oracle/SYRK/allocation
#                   gates and its give-up and poisoned-input tests +
#                   the column-generation loop's branch and donor-resume
#                   support and sharing tests +
#                   the store codec/round-trip tests + the server's
#                   pool-lifecycle tests
#                   (pre-push sanity, well under a minute)
set -eux

go build ./...
go vet ./...
# Type-check the non-amd64 build as well, the one without the AVX2
# SYRK assembly (internal/lp/syrk_amd64.*): the host build sees only
# the host's files, so a deletion deadcode suggests must not break
# another platform unseen.
GOARCH=arm64 go vet ./...
# Formatting gate: every Go file in the module must be gofmt-clean.
test -z "$(gofmt -l .)"

# Domain-invariant static analysis: cmd/vlplint enforces the solver's
# safety contracts (Geo-I repair gate, atomic stats, context plumbing,
# float tolerance, chaos-point coverage, kernel determinism, plus
# nilness/shadow) and the whole-program invariants (privtaint: no true
# location reaches a sink unsampled; lockorder: acyclic global lock
# graph including the lease flock; errflow: durable-I/O errors never
# dropped; goctx: every goroutine cancellable or joined; deadcode: every
# function reached from a main, init, package-level var or the exported
# repro API, so code with no caller fails the gate). Zero findings
# against the checked-in (empty) baseline is a hard gate; the full
# finding list is emitted as the vlplint.json artifact either way. See
# DESIGN.md "Static analysis" for the invariant catalogue and the
# suppression directive.
go run ./cmd/vlplint -json -baseline lint.baseline.json ./... > vlplint.json || {
    cat vlplint.json
    exit 1
}

# perfbench is its own module (perfbench/go.mod, replacing repro with
# the root), so the builds above never compile it. Vet and test it in
# both paths: a root change that drops an identifier the benchmark
# compiles against must fail here, not only in the benchmark pipeline.
(cd perfbench && go vet ./... && go test ./...)

# Solve-ledger smoke: cmd/vlpbench's smallest size, its seeded row and
# its in-memory donor row (a seeded warm-up, then resumes of jittered
# priors), written to stdout. A change that breaks either path, or the
# ledger program itself, fails here; the numbers are not gated.
go run ./cmd/vlpbench -quick -out - > /dev/null

if [ "${1:-}" = "-quick" ]; then
    # The lint suite's own tests ride in -quick: the analyzers gate
    # every push, so a broken // want expectation or a regressed taint
    # summary must surface in the pre-push check, not the full gate.
    go test ./internal/lint/...
    # The lp digest, SYRK, Cholesky and basis-inverse bit-identity and
    # allocation gates (about 2 s): an lp refactor that moves a golden
    # digest or one of lp.Solve's pinned oracle digests, lets the Go and
    # AVX2 SYRK kernels round apart, lets the paired Cholesky drift from
    # its row-at-a-time oracle, lets the sparse basis inversion drift
    # from its dense Gauss-Jordan oracle or a memoised inverse from the
    # inversion it stands for, lets a clone of a compiled master solve
    # apart from a fresh compile, lets the IPM's block normal equations
    # drift from their dense 2K×2K oracle or its panel sweeps from a
    # full row-major mirror, or starts allocating on a hot path (a
    # warm IPM or pricing re-solve, the pricing sweep, or the master's
    # column append, IPMSolver.AddColumn) fails before push, not only in
    # the full gate below. The same run keeps the solvers' one way to
    # give up and their recovery from poisoned warm starts honest:
    # Beale's cycling example, the pivot and Newton limits, and the
    # poisoned basis and iterate tests.
    go test -count=1 -run 'TestGoldenMechanismDigests|TestSolveOracleBitsPinned|TestDegenerateCycleGuard|TestMaxIterReportsLimit|TestIPMInfeasibleReportsLimit|Poisoned|TestSyrkKernelsBitIdentical|TestCholeskyBitIdentical|TestSparseInverse|TestFrozenIPMClone|TestBlockNewtonMatchesDense|TestPanelSweepsMatchMirror|Allocs' ./internal/lp
    # The column-generation loop's branch tests (about 5 s): between
    # them they drive every branch of the loop in internal/core/cg.go —
    # a resume from a state of another K, a late master failure, the
    # fixed checkpoint cadence, the gap and ξ stops, the smoothed-dual
    # re-verification and ρ widening, and the pricing column check with
    # its cold re-solve (a replay of a warm solve that once left Λ_l).
    # With them, the donor resume's support and sharing (about 5 s): a
    # resume's master must hold exactly the support of the donor's
    # iterate, with every convexity row covered, and leave the donor
    # state as it was; a resume that clones the compiled master a donor
    # state keeps must serve a fresh compile's bits; and a resume that
    # compiles, builds a mirror or inverts a basis again fails its
    # allocation budget.
    go test -count=1 -run 'TestSolveCGResumeMismatchedStateIgnored|TestSolveCGMasterErrorLateRound|TestSolveCGCheckpointHook|TestSolveCGRelGapStops|TestSolveCGXiEarlyStop|TestSolveCGWarmCertifiesOptimality|TestPriceOneRejectsInfeasibleColumn|TestPriceOneWarmColumnOutsideLambdaResolvedCold|TestSolveCGDonorResumeSupport|TestSolveCGDonorResumeSharedMaster|TestDonorResumeAllocs' ./internal/core
    # The durable-store codec and round-trip tests (about 1 s): an entry
    # or pool codec change that stops decoding older files, re-encodes
    # them with drift, or breaks the store's commit/scan round trip fails
    # before push, not only in the full gate.
    go test -count=1 -run 'TestStored' ./internal/serial
    go test -count=1 -run 'TestStore' ./internal/store
    # The server's pool-lifecycle tests (about 3 s): who donates to a
    # road network and when its <geometry>.pool record is written, read
    # and shed. A change that lets two first misses on one network both
    # solve from seeds, rewrites a pool record already on disk, or stops
    # an upgrade resuming from the stored pool fails before push.
    go test -count=1 -run 'TestDonorPool|TestOneSolvePerNetwork|TestOwnerWait|TestCheckpointedFinalPool|TestStoredPool|TestStoredCheckpoint|TestUpgradeResumes|TestStoreWriteShed' ./internal/server
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
# directory must serve the finished mechanism with zero cold solves, and
# answer its first request for the interrupted spec optimal with every
# solve resumed from the network's pool checkpoint (solves ==
# donor_solves ≥ 1), a repeat of it cached.
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
# leader out, a promoted leader that never resumed the pause's spec (a
# new prior on a warmup network) from the pool checkpoint, or a dirty
# store replay (every pool checkpoint is also loaded under its geometry
# key and restored). The test also requires the
# healthy baseline to keep up with two thirds of its open-loop schedule
# and to serve from cache. The emitted report is archived as
# BENCH_chaos.json.
VLP_CHAOS_OUT="$PWD/BENCH_chaos.json" go test -count=1 -run 'TestChaosSmoke' ./cmd/vlpchaos

# Kill-the-leader failover gate: three real vlpserved processes share a
# store in -fleet mode; the lease-holding leader is SIGKILLed mid-solve
# and a follower must take over within one lease TTL with a bumped
# fencing token and start no solve on promotion; its first request for
# the interrupted spec must end optimal with every solve resumed from
# the network's pool checkpoint (solves == donor_solves ≥ 1), a repeat
# cached, while the remaining follower stays on the proxy path (zero
# local cold solves). The measured window is stamped into BENCH_chaos.json as
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
# The donor tests ride along: concurrent cold solves on one road network
# all resume from that network's shared donor pool, pricing bases and
# compiled master, which must stay immutable under the race detector
# but for the compiled master and the bases' inverse memos the first
# resumes fill, and concurrent first misses on one network take its
# owner lock in turn; in internal/lp, concurrent solves from one frozen
# basis race to fill its memo, and clones share a compiled master and
# sweep its panel and remainder mirror concurrently.
# These also run in the -race pass above; the explicit run keeps the
# gate legible and fails fast when the admission layer regresses.
go test -race -run 'TestAdmission|TestServeGate|TestCoalesce|TestDonor|TestOneSolvePerNetwork|TestOwnerWait|TestSolveCGDonorResume|TestSparseInverseMemo|TestFrozenIPMClone|TestPanelSweeps' ./internal/server ./internal/core ./internal/lp

# Golden-digest gate: digests change only on purpose. The served wire
# bytes (SolveCG, EnforceGeoI, serial.WriteJSON) of the K12/K24/K44
# benchmark tiers and one heterogeneous-epsilon instance must hash to the
# checked-in SHA-256 table, at 1 and 4 pricing workers and at GOMAXPROCS
# 1 and 4. There is one table: the SYRK runs the AVX2 assembly where
# the CPU has AVX2 and FMA and the Go kernel elsewhere, with the same
# bits (TestSyrkKernelsBitIdentical).
go test -count=1 -cpu 1,4 -run 'TestGoldenMechanismDigests' ./internal/lp

# Allocation-regression gate: the warm-start hot paths (persistent
# master re-solve, persistent pricing subproblems), Dijkstra's typed
# heap, the cached /obfuscate handler and the store read-through
# (TestStoreReadThroughAllocs) carry AllocsPerRun budgets; run them
# without -race, whose instrumentation changes alloc counts. A failure
# here means a kernel started allocating per round (or per heap push),
# a cached request started allocating per request again, or a
# read-through started re-deriving its network's geometry.
go test -count=1 -run 'Allocs' ./internal/lp ./internal/core ./internal/roadnet ./internal/server

# Fuzz smoke: ten seconds per serial decoder, enough to catch a freshly
# introduced parsing crash (or, for the /obfuscate codec, a divergence
# from encoding/json) without stalling the gate.
go test -fuzz=FuzzNetworkRoundTrip -fuzztime=10s -run '^$' ./internal/serial
go test -fuzz=FuzzMechanismRoundTrip -fuzztime=10s -run '^$' ./internal/serial
go test -fuzz=FuzzStoreDecode -fuzztime=10s -run '^$' ./internal/serial
# The /obfuscate hot-path codec against encoding/json, its oracle.
go test -fuzz=FuzzObfuscateWire -fuzztime=10s -run '^$' ./internal/serial
