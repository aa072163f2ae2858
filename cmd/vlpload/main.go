// Command vlpload is the open-loop load harness for vlpserved: it fires
// obfuscation requests at a constant arrival rate (independent of how
// fast the server answers — the property that exposes queueing collapse,
// unlike a closed-loop driver that self-throttles when the server
// slows), spreads them over a pool of region digests with Zipf-skewed
// popularity, and writes the observed latency/shed/rung trajectory to
// BENCH_serve.json in the same spirit as cmd/vlpbench's
// BENCH_solver.json.
//
// Usage:
//
//	vlpload [-addr http://localhost:8750] [-targets URL,URL,...]
//	        [-rate 100] [-duration 10s]
//	        [-specs 8] [-zipf-s 1.2] [-zipf-v 1] [-seed 1] [-locs 4]
//	        [-rows 2] [-cols 2] [-delta 0.3] [-no-warmup]
//	        [-out BENCH_serve.json]
//	        [-selfserve] [-solve-pool 2] [-serve-pool 32] [-cache 16]
//
// -targets drives a multi-instance fleet: requests round-robin over the
// comma-separated base URLs (deterministically, by arrival index) and
// the report gains a per_target breakdown — per-member latency
// quantiles and shed rates — so a follower whose misses proxy to the
// leader shows up as a higher p99 on its slice rather than vanishing
// into the aggregate. -targets overrides -addr.
//
// The digest pool is a seeded grid network with a ladder of epsilons —
// one digest per epsilon — so the whole request schedule is reproducible
// from (-seed, -rate, -duration, -specs). By default the pool is
// pre-solved through the retrying client (warmup) before measurement, so
// the steady-state run measures the serving tiers rather than the first
// cold solves; -no-warmup measures the cold-start stampede instead.
//
// -selfserve runs an in-process vlpserved instead of targeting -addr:
// handy for CI smoke runs (ci.sh drives this path via TestLoadSmoke) and
// for single-machine experiments where network jitter would drown the
// sub-millisecond cached tier.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/retryhttp"
	"repro/internal/roadnet"
	"repro/internal/serial"
	"repro/internal/server"
)

// wallClock is the production loadgen.Clock; tests inside internal/
// loadgen use the virtual clock instead.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// harnessConfig is everything run needs; main fills it from flags, the
// smoke test fills it directly.
type harnessConfig struct {
	base       string   // target base URL (single-instance runs)
	targets    []string // multi-instance base URLs, round-robin; overrides base when set
	rate       float64
	duration   time.Duration
	specs      int
	zipfS      float64
	zipfV      float64
	seed       int64
	locs       int
	rows, cols int
	delta      float64
	warmup     bool
	client     *http.Client
}

func main() {
	addr := flag.String("addr", "http://localhost:8750", "vlpserved base URL")
	targets := flag.String("targets", "", "comma-separated fleet base URLs; round-robins requests and adds a per-target report breakdown (overrides -addr)")
	rate := flag.Float64("rate", 100, "open-loop arrival rate, requests per second")
	duration := flag.Duration("duration", 10*time.Second, "measurement duration")
	specs := flag.Int("specs", 8, "region-digest pool size (one digest per epsilon rung)")
	zipfS := flag.Float64("zipf-s", 1.2, "Zipf exponent over the digest pool (must be > 1)")
	zipfV := flag.Float64("zipf-v", 1, "Zipf v parameter (must be >= 1)")
	seed := flag.Int64("seed", 1, "schedule seed: fixes the target and location sequence")
	locs := flag.Int("locs", 4, "locations per obfuscate request")
	rows := flag.Int("rows", 2, "grid rows of the workload network")
	cols := flag.Int("cols", 2, "grid columns of the workload network")
	delta := flag.Float64("delta", 0.3, "discretisation interval length")
	noWarmup := flag.Bool("no-warmup", false, "skip pre-solving the digest pool (measures the cold-start stampede)")
	out := flag.String("out", "BENCH_serve.json", "output report path (- for stdout)")
	selfserve := flag.Bool("selfserve", false, "run an in-process vlpserved and ignore -addr")
	solvePool := flag.Int("solve-pool", 2, "selfserve: solve-tier pool size")
	servePool := flag.Int("serve-pool", 32, "selfserve: serve-tier pool size")
	cache := flag.Int("cache", 16, "selfserve: mechanism LRU capacity")
	flag.Parse()

	cfg := harnessConfig{
		base: *addr, rate: *rate, duration: *duration,
		specs: *specs, zipfS: *zipfS, zipfV: *zipfV, seed: *seed,
		locs: *locs, rows: *rows, cols: *cols, delta: *delta,
		warmup: !*noWarmup,
	}
	if *targets != "" {
		for _, u := range strings.Split(*targets, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cfg.targets = append(cfg.targets, u)
			}
		}
		if len(cfg.targets) == 0 {
			fatalf("-targets lists no usable URLs: %q", *targets)
		}
		if *selfserve {
			fatalf("-selfserve and -targets conflict: the in-process server is single-instance")
		}
	}

	if *selfserve {
		srv := server.New(context.Background(), server.Config{
			CacheSize: *cache,
			SolvePool: *solvePool,
			ServePool: *servePool,
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Shutdown(context.Background())
		cfg.base = ts.URL
		fmt.Fprintf(os.Stderr, "vlpload: in-process vlpserved (solve pool %d, serve pool %d)\n",
			*solvePool, *servePool)
	}

	rep, err := run(context.Background(), cfg, wallClock{})
	if err != nil {
		fatalf("%v", err)
	}
	rep.GeneratedUnix = time.Now().Unix()
	rep.GoVersion = runtime.Version()
	if err := rep.Validate(); err != nil {
		fatalf("emitted report failed its own schema check: %v", err)
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatalf("encode: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatalf("write: %v", err)
	} else {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	fmt.Fprintf(os.Stderr,
		"vlpload: %d requests @ %.1f rps achieved (target %.1f): latency p50=%.2fms p99=%.2fms p999=%.2fms, cached p99=%.2fms, 429 %.1f%%, errors %.1f%%\n",
		rep.Requests, rep.AchievedRate, rep.Config.TargetRate,
		rep.LatencyMs.P50, rep.LatencyMs.P99, rep.LatencyMs.P999,
		rep.CachedLatencyMs.P99, 100*rep.Rate429, 100*rep.ErrorRate)
	for _, t := range rep.PerTarget {
		fmt.Fprintf(os.Stderr,
			"vlpload:   %s: %d requests, p50=%.2fms p99=%.2fms, 429 %.1f%%, errors %.1f%%\n",
			t.URL, t.Requests, t.LatencyMs.P50, t.LatencyMs.P99, 100*t.Rate429, 100*t.ErrorRate)
	}
}

// run executes the full harness against cfg.base and folds the results
// into a Report (GeneratedUnix/GoVersion left for the caller to stamp).
func run(ctx context.Context, cfg harnessConfig, clock loadgen.Clock) (loadgen.Report, error) {
	if cfg.client == nil {
		// The open-loop dispatcher can hold many requests in flight at
		// once; keep enough idle connections that connection churn does
		// not masquerade as serving latency.
		cfg.client = &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
			},
		}
	}

	// urls is the round-robin rotation: the configured fleet targets, or
	// just the single base URL. do() indexes it by arrival index so the
	// assignment is part of the deterministic schedule, not runtime state.
	urls := cfg.targets
	if len(urls) == 0 {
		urls = []string{cfg.base}
	}

	specs, payloads, err := buildWorkload(cfg)
	if err != nil {
		return loadgen.Report{}, err
	}

	if cfg.warmup {
		if err := warmup(ctx, cfg, urls, specs); err != nil {
			return loadgen.Report{}, err
		}
	}

	zipf, err := loadgen.NewZipf(cfg.seed, cfg.zipfS, cfg.zipfV, len(specs))
	if err != nil {
		return loadgen.Report{}, err
	}
	plan, err := loadgen.Schedule(cfg.rate, cfg.duration, zipf.Pick)
	if err != nil {
		return loadgen.Report{}, err
	}

	obfURLs := make([]string, len(urls))
	for i, u := range urls {
		obfURLs[i] = u + "/obfuscate"
	}
	do := func(reqCtx context.Context, a loadgen.Arrival) loadgen.Result {
		inst := a.Index % len(obfURLs)
		start := clock.Now()
		status, rung := postObfuscate(reqCtx, cfg.client, obfURLs[inst], payloads[a.Target])
		return loadgen.Result{
			Target:   a.Target,
			Instance: inst,
			Status:   status,
			Rung:     rung,
			Latency:  clock.Now().Sub(start),
		}
	}

	runStart := clock.Now()
	results := loadgen.Run(ctx, clock, plan, do)
	elapsed := clock.Now().Sub(runStart)
	if len(results) == 0 {
		return loadgen.Report{}, fmt.Errorf("vlpload: no requests dispatched (cancelled before the first arrival?)")
	}

	rep := loadgen.BuildReport(loadgen.RunConfig{
		TargetRate:     cfg.rate,
		DurationSec:    cfg.duration.Seconds(),
		Specs:          cfg.specs,
		ZipfS:          cfg.zipfS,
		ZipfV:          cfg.zipfV,
		Seed:           cfg.seed,
		LocsPerRequest: cfg.locs,
		Targets:        cfg.targets,
	}, results, elapsed)
	// In a fleet run the counters come from the first target; server-side
	// counters are per-process, and the leader (started first by
	// convention) is the one whose solve counters matter. fleet_totals
	// sums every member's snapshot for the fleet-wide picture.
	scrapes := make([]*loadgen.ServerCounters, len(urls))
	for i, u := range urls {
		scrapes[i] = fetchServerCounters(ctx, cfg.client, u)
	}
	rep.Server = scrapes[0]
	if len(cfg.targets) > 0 {
		rep.FleetTotals = loadgen.MergeCounters(scrapes)
	}
	return rep, nil
}

// buildWorkload constructs the digest pool (one spec per epsilon rung
// over a seeded grid network) and pre-marshals one obfuscate payload per
// spec, so the hot loop does no JSON encoding.
func buildWorkload(cfg harnessConfig) ([]*serial.SolveSpec, [][]byte, error) {
	if cfg.specs <= 0 {
		return nil, nil, fmt.Errorf("vlpload: digest pool must be positive, got %d", cfg.specs)
	}
	if cfg.locs <= 0 {
		return nil, nil, fmt.Errorf("vlpload: locations per request must be positive, got %d", cfg.locs)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	g := roadnet.Grid(rng, roadnet.GridConfig{
		Rows: cfg.rows, Cols: cfg.cols, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	net := serial.FromGraph(g)

	specs := make([]*serial.SolveSpec, cfg.specs)
	payloads := make([][]byte, cfg.specs)
	for i := range specs {
		spec := &serial.SolveSpec{Network: net, Delta: cfg.delta, Epsilon: 1 + 0.5*float64(i)}
		if err := spec.Validate(); err != nil {
			return nil, nil, fmt.Errorf("vlpload: workload spec %d invalid: %w", i, err)
		}
		req := serial.ObfuscateRequest{SolveSpec: *spec}
		for j := 0; j < cfg.locs; j++ {
			road := rng.Intn(g.NumEdges())
			w := g.Edge(roadnet.EdgeID(road)).Weight
			req.Locations = append(req.Locations, serial.Loc{Road: road, FromStart: rng.Float64() * w})
		}
		payload, err := json.Marshal(&req)
		if err != nil {
			return nil, nil, err
		}
		specs[i], payloads[i] = spec, payload
	}
	return specs, payloads, nil
}

// warmup pre-solves every digest in the pool through the retrying
// client, so steady-state measurement starts from a warm cache instead
// of a cold-solve stampede. Every target is warmed with every spec: in
// a fleet the first /solve lands the entry in the shared store (via the
// leader) and the same spec against the other members warms their
// caches read-through, so steady state measures serving, not refresh.
func warmup(ctx context.Context, cfg harnessConfig, urls []string, specs []*serial.SolveSpec) error {
	rc := &retryhttp.Client{HTTP: cfg.client, MaxAttempts: 8, BaseDelay: 200 * time.Millisecond, MaxDelay: 5 * time.Second}
	for i, spec := range specs {
		for _, base := range urls {
			var solved serial.SolveResponse
			status, err := rc.PostJSON(ctx, base+"/solve", spec, &solved)
			if err != nil {
				return fmt.Errorf("vlpload: warmup solve %d/%d against %s: %w", i+1, len(specs), base, err)
			}
			if status < 200 || status >= 300 {
				return fmt.Errorf("vlpload: warmup solve %d/%d against %s: server answered %d past the retry budget",
					i+1, len(specs), base, status)
			}
		}
	}
	return nil
}

// postObfuscate fires one measured request and classifies the outcome:
// (status, rung) with rung set only on a decoded 2xx response. A
// transport or decode failure reports status 0, which the report counts
// as an error.
func postObfuscate(ctx context.Context, client *http.Client, url string, payload []byte) (int, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, ""
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, ""
	}
	var out serial.ObfuscateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, ""
	}
	if out.Cached {
		return resp.StatusCode, loadgen.RungCached
	}
	if out.Quality == "" {
		return resp.StatusCode, serial.QualityOptimal
	}
	return resp.StatusCode, out.Quality
}

// fetchServerCounters snapshots the target's /stats at run end; nil when
// the endpoint is unreachable (the client-side report still stands).
func fetchServerCounters(ctx context.Context, client *http.Client, base string) *loadgen.ServerCounters {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return nil
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	var snap server.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil
	}
	return &loadgen.ServerCounters{
		Solves:           snap.Solves,
		CacheHits:        snap.CacheHits,
		CacheMisses:      snap.CacheMisses,
		Rejected:         snap.Rejected,
		Coalesced:        snap.CoalescedRequests,
		AdmissionRejects: snap.AdmissionRejects,
		DegradedServes:   snap.DegradedServes,
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vlpload: "+format+"\n", args...)
	os.Exit(1)
}
