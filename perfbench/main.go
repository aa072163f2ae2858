// Command perfbench is the repository's end-to-end benchmark. It spawns a
// prebuilt vlpserved, drives it over loopback HTTP with one of four
// seeded workloads, checks every answer, and prints one JSON result line.
// With --trace 1 it also runs the workload in-process with per-layer
// spans and prints the per-layer metrics instead. See README.md; run it
// through run.sh, which builds both binaries first.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// setupRepeats is how many times a run sets the server up from scratch;
// setup_s is their median and the last one is measured.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp describes the conditions of one run, so a noisy run is visible
// as one.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Tree       string `json:"tree_sha256"`
	Ops        int    `json:"ops"`
	// cpu_ms_per_op and the loadgen p50/p90 come from the QuietOps
	// operations that completed in the least-stolen windows, at least
	// QuietShare of the run (see steal.go); the All* fields are the same
	// figures over every operation.
	QuietShare    float64   `json:"quiet_share"`
	QuietOps      int       `json:"quiet_ops"`
	TailPct       float64   `json:"tail_pct_supported"`
	AllP50Ms      float64   `json:"all_lat_p50_ms"`
	AllP90Ms      float64   `json:"all_lat_p90_ms"`
	AllCPUMsPerOp float64   `json:"all_cpu_ms_per_op"`
	MissShare     float64   `json:"miss_share"`
	StealShare    float64   `json:"steal_share"`
	LagP99Ms      float64   `json:"lag_p99_ms"`
	SetupSeconds  []float64 `json:"setup_s_samples"`
	Errors        []string  `json:"errors,omitempty"`
}

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string
	out       string
}

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload name: serve-hot, serve-batch, serve-churn or solve-cold")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed")
	flag.IntVar(&c.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the in-process traced run and prints per-layer metrics")
	flag.StringVar(&c.serverBin, "server", "", "prebuilt vlpserved binary")
	flag.StringVar(&c.out, "out", ".bench_build", "directory for stores, logs, spans and run records")
	flag.Parse()
	c.trace = traceFlag == 1
	if c.serverBin == "" || c.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fatalf("usage: perfbench --server BIN --workload NAME --seed N --seconds S --trace 0|1")
	}
	res, st, err := run(c)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("perfbench: stamp %s\n", b)
	if b, err = json.Marshal(res); err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// bench is one run's state.
type bench struct {
	c      config
	in     *inputs
	dir    string
	procs  int
	client *http.Client

	mu       sync.Mutex
	served   map[string]float64 // digest → ETDD the server reported
	errs     []string
	failed   int
	violated int
}

// fail records a failed operation; violation marks an answer that came
// back but failed an output check.
func (b *bench) fail(violation bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if violation {
		b.violated++
	}
	if len(b.errs) < 5 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

func (b *bench) recordServed(digest string, etdd float64) {
	b.mu.Lock()
	b.served[digest] = etdd
	b.mu.Unlock()
}

func run(c config) (*result, *stamp, error) {
	w, err := workloadByName(c.workload)
	if err != nil {
		return nil, nil, err
	}
	in, err := buildInputs(w, c.seed, c.seconds)
	if err != nil {
		return nil, nil, fmt.Errorf("build inputs: %w", err)
	}
	// The server gets procs Ps; the load generator needs one, and a
	// second would only compete with the server for the same vCPUs.
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(1)
	b := &bench{
		c: c, in: in, procs: procs, served: map[string]float64{},
		dir: filepath.Join(c.out, "runs", fmt.Sprintf("%s-seed%d-trace%d-%d", w.name, c.seed, boolInt(c.trace), time.Now().UnixNano())),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs, DisableCompression: true,
		}},
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, nil, err
	}
	tree, err := treeDigest(".")
	if err != nil {
		return nil, nil, fmt.Errorf("hash source tree: %w", err)
	}
	st := &stamp{
		Workload: w.name, Seed: c.seed, Trace: boolInt(c.trace), GoVersion: runtime.Version(),
		GOMAXPROCS: procs, NProc: runtime.NumCPU(), Tree: tree,
	}
	res, err := b.measure(st)
	if err != nil {
		return nil, nil, err
	}
	st.Errors = b.errs
	if rec, err := json.MarshalIndent(map[string]any{"stamp": st, "result": res}, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(b.dir, "record.json"), rec, 0o644) // the record is a convenience copy of stdout
	}
	// Stores are large and only needed until the audit; logs, spans and
	// the record stay.
	for _, pat := range []string{"store*", "*-store"} {
		matches, _ := filepath.Glob(filepath.Join(b.dir, pat))
		for _, m := range matches {
			_ = os.RemoveAll(m) // leftover scratch only costs disk
		}
	}
	return res, st, nil
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

func (b *bench) flags(i int) serverFlags {
	return serverFlags{cache: b.in.w.cache, storeDir: filepath.Join(b.dir, fmt.Sprintf("store%d", i))}
}

// measure sets the server up setupRepeats times, measures the last one,
// audits its store and, with tracing on, adds the in-process run.
func (b *bench) measure(st *stamp) (*result, error) {
	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		var err error
		if srv, err = b.setUp(b.flags(i), filepath.Join(b.dir, fmt.Sprintf("vlpserved%d.log", i))); err != nil {
			return nil, err
		}
		st.SetupSeconds = append(st.SetupSeconds, time.Since(start).Seconds())
	}
	if b.failed > 0 {
		return nil, fmt.Errorf("set-up failed: %s", strings.Join(b.errs, "; "))
	}

	ph, err := b.runPhase(srv)
	if err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil

	auditFailures, err := b.audit(b.flags(setupRepeats - 1).storeDir)
	if err != nil {
		return nil, err
	}

	samples := ph.samples
	var lats, lags []time.Duration
	okOps := 0
	for _, s := range samples {
		lags = append(lags, s.lag)
		if s.ok {
			okOps++
			lats = append(lats, s.lat)
		} else {
			// A failed operation misses every latency limit.
			lats = append(lats, time.Duration(math.MaxInt64))
		}
	}
	if okOps == 0 {
		return nil, fmt.Errorf("no operation succeeded: %s", strings.Join(b.errs, "; "))
	}
	quiet, quietCPU := ph.tl.quiet(samples, b.in.w.quiet)
	var quietLats []time.Duration
	for _, i := range quiet {
		quietLats = append(quietLats, lats[i])
	}
	latMs, lagMs, quietMs := sortedMs(lats), sortedMs(lags), sortedMs(quietLats)
	hits := float64(ph.stats1.CacheHits - ph.stats0.CacheHits)
	misses := float64(ph.stats1.CacheMisses - ph.stats0.CacheMisses)
	st.Ops, st.QuietOps, st.QuietShare = len(samples), len(quietLats), b.in.w.quiet
	st.TailPct = highestSupported(len(quietLats), []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999})
	st.AllP50Ms, st.AllP90Ms = nearestRank(latMs, 0.5), nearestRank(latMs, 0.9)
	st.AllCPUMsPerOp = float64(ph.cpu()) / float64(time.Millisecond) / float64(okOps)
	st.MissShare = misses / math.Max(hits+misses, 1)
	st.StealShare = ph.steal()
	st.LagP99Ms = nearestRank(lagMs, 0.99)

	attempted := len(samples)
	failed := b.failed + auditFailures
	res := &result{
		Correct:   b.violated == 0 && auditFailures == 0,
		Attempted: attempted,
		Failed:    failed,
	}
	if !b.c.trace {
		res.Metrics = map[string]metric{
			"setup_s":       {median(append([]float64(nil), st.SetupSeconds...)), "s"},
			"cpu_ms_per_op": {float64(quietCPU) / float64(time.Millisecond), "ms"},
			"peak_rss_mb":   {float64(ph.rss) / (1 << 20), "MB"},
			"ok_ratio":      {1 - float64(failed)/float64(attempted), "ratio"},
			"etdd_km":       {b.meanServedETDD(), "km"},
		}
		return res, nil
	}

	// The in-process server runs with the Ps the spawned one had.
	runtime.GOMAXPROCS(b.procs)
	traced, shares, tracedFailures, err := runTraced(b.in, b.flags(setupRepeats), filepath.Join(b.dir, "traced"))
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if tracedFailures > 0 {
		res.Correct = false
		res.Failed += tracedFailures
		b.errs = append(b.errs, fmt.Sprintf("%d traced operations failed their output checks", tracedFailures))
	}
	traced["loadgen.lag_p99_ms"] = metric{st.LagP99Ms, "ms"}
	traced["loadgen.lat_p50_ms"] = metric{nearestRank(quietMs, 0.5), "ms"}
	traced["loadgen.lat_p90_ms"] = metric{nearestRank(quietMs, 0.9), "ms"}
	traced["loadgen.lat_p99_ms"] = metric{nearestRank(latMs, 0.99), "ms"}
	traced["host.steal_frac"] = metric{st.StealShare, "ratio"}
	traced["server.cache_hit_ratio"] = metric{hits / math.Max(hits+misses, 1), "ratio"}
	s0, s1 := ph.stats0, ph.stats1
	traced["server.store_loads"] = metric{float64(s1.StoreLoads - s0.StoreLoads), "count"}
	traced["server.admission_rejects"] = metric{float64(s1.AdmissionRejects - s0.AdmissionRejects + s1.Rejected - s0.Rejected), "count"}
	traced["server.coalesced_requests"] = metric{float64(s1.CoalescedRequests - s0.CoalescedRequests), "count"}
	traced["server.solves"] = metric{float64(s1.Solves - s0.Solves), "count"}
	traced["server.serve_queue_depth_max"] = metric{float64(ph.depthMax), "count"}
	res.Metrics = traced
	fmt.Printf("perfbench: in-process op time by replayed layer: %s\n", formatShares(shares))
	return res, nil
}

// phase is what the measured phase observed.
type phase struct {
	samples        []sample
	tl             *timeline
	stats0, stats1 server.StatsSnapshot
	rss            int64
	depthMax       int64
}

func (ph *phase) cpu() time.Duration {
	r := ph.tl.readings
	return r[len(r)-1].server - r[0].server
}

func (ph *phase) steal() float64 {
	r := ph.tl.readings
	return stealFrac(r[0].host, r[len(r)-1].host)
}

// runPhase runs the measured phase against srv, reading host and server
// CPU counters throughout and, with tracing on, polling the serve-gate
// queue depth.
func (b *bench) runPhase(srv *serverProc) (*phase, error) {
	ph := &phase{tl: &timeline{srvCPU: srv.cpu}}
	var err error
	if ph.stats0, err = srv.stats(); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var depthMax atomic.Int64
	if b.c.trace {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pollDepth(srv, &depthMax, stop)
		}()
	}
	ph.tl.mark()
	wg.Add(1)
	go func() {
		defer wg.Done()
		ph.tl.tick(stop)
	}()
	if b.in.w.solve {
		ph.samples = b.solveLoop(srv)
	} else {
		ph.samples = b.serveLoop(srv)
	}
	ph.tl.mark()
	close(stop)
	wg.Wait()
	if ph.tl.err != nil {
		return nil, ph.tl.err
	}
	ph.depthMax = depthMax.Load()
	if ph.stats1, err = srv.stats(); err != nil {
		return nil, err
	}
	if ph.rss, err = srv.peakRSS(); err != nil {
		return nil, err
	}
	return ph, nil
}

// pollDepth samples the serve-gate queue depth from /stats until stop
// closes, keeping the maximum.
func pollDepth(srv *serverProc, depthMax *atomic.Int64, stop <-chan struct{}) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if s, err := srv.stats(); err == nil && s.ServeQueueDepth > depthMax.Load() {
				depthMax.Store(s.ServeQueueDepth)
			}
		}
	}
}

func formatShares(shares map[string]float64) string {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s %.1f%%", n, 100*shares[n])
	}
	return strings.Join(parts, ", ")
}

// setUp spawns vlpserved and does the workload's real set-up work:
// solving (and so committing to the store) every pool spec, or for
// solve-cold one warm-up solve.
func (b *bench) setUp(flags serverFlags, logPath string) (*serverProc, error) {
	srv, err := startServer(b.c.serverBin, flags, logPath, b.procs, b.client)
	if err != nil {
		return nil, err
	}
	bodies, digests := b.in.bodies, b.in.digests
	if b.in.w.solve {
		bodies, digests = [][]byte{b.in.warmBody}, []string{b.in.warmDigest}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(bodies); i = int(next.Add(1) - 1) {
				b.solveOne(srv, bodies[i], digests[i])
			}
		}()
	}
	wg.Wait()
	return srv, nil
}

// solveOne posts one /solve and checks the answer.
func (b *bench) solveOne(srv *serverProc, body []byte, digest string) (time.Time, bool) {
	status, out, err := srv.post("/solve", body)
	done := time.Now()
	if err != nil {
		b.fail(false, "solve %s: %v", digest[:12], err)
		return done, false
	}
	resp, err := checkSolve(status, out, digest, b.in.w.tier.k)
	if err != nil {
		b.fail(status == http.StatusOK, "solve %s: %v", digest[:12], err)
		return done, false
	}
	b.recordServed(digest, resp.ETDD)
	return done, true
}

// serveLoop runs the open-loop /obfuscate plan.
func (b *bench) serveLoop(srv *serverProc) []sample {
	plan := b.in.plan
	due := func(i int) time.Duration { return plan[i].due }
	return openLoop(wallClock{}, time.Now(), len(plan), due, b.procs, func(i int) (time.Time, bool) {
		a := plan[i]
		status, out, err := srv.post("/obfuscate", a.body)
		done := time.Now()
		if err != nil {
			b.fail(false, "obfuscate %d: %v", i, err)
			return done, false
		}
		if _, err := checkObfuscate(status, out, b.in.digests[a.spec], a.locs, b.in.graph); err != nil {
			b.fail(status == http.StatusOK, "obfuscate %d: %v", i, err)
			return done, false
		}
		return done, true
	})
}

// solveLoop runs solve-cold's closed loop over its never-seen specs.
func (b *bench) solveLoop(srv *serverProc) []sample {
	deadline := time.Now().Add(time.Duration(b.c.seconds) * time.Second)
	return closedLoop(wallClock{}, deadline, len(b.in.specs), func(i int) (time.Time, bool) {
		return b.solveOne(srv, b.in.bodies[i], b.in.digests[i])
	})
}

// audit replays every stored mechanism the workload served and returns
// how many fail.
func (b *bench) audit(dir string) (int, error) {
	st, err := store.Open(dir)
	if err != nil {
		return 0, fmt.Errorf("audit: open store: %w", err)
	}
	failures := 0
	for digest, etdd := range b.served {
		if err := auditEntry(st, digest, etdd); err != nil {
			failures++
			b.errs = append(b.errs, fmt.Sprintf("audit %s: %v", digest[:12], err))
		}
	}
	return failures, nil
}

// meanServedETDD is the mean ETDD of the mechanisms the workload served:
// the pool specs its plan requested, or every spec solve-cold solved.
func (b *bench) meanServedETDD() float64 {
	var sum float64
	var n int
	if b.in.w.solve {
		for _, d := range b.in.digests {
			if e, ok := b.served[d]; ok {
				sum += e
				n++
			}
		}
	} else {
		for _, i := range b.in.servedSpecs() {
			sum += b.served[b.in.digests[i]]
			n++
		}
	}
	return sum / float64(n)
}

// treeDigest hashes every regular file under root except build output
// and VCS metadata, so a run names the exact source it measured (the
// checkout it runs in need not be a git repository).
func treeDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
