package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/roadnet"
	"repro/internal/serial"
	"repro/internal/server"
	"repro/internal/store"
)

// Traced-run sizes: how many of the workload's operations the in-process
// run replays. Enough for stable means, small enough to add a few
// seconds to a run.
const (
	tracedServeOps = 1000
	tracedSolveOps = 10
)

// serveTol is the Geo-I repair tolerance vlpserved applies before it
// serves a mechanism (internal/server's geoITol).
const serveTol = 1e-10

// cgOptions are vlpserved's default column-generation options (-xi,
// -relgap).
func cgOptions() core.CGOptions { return core.CGOptions{Xi: -0.05, RelGap: 0.02} }

// inProcessConfig is the server.Config cmd/vlpserved derives from f plus
// its defaults for every flag the benchmark leaves unset.
func inProcessConfig(f serverFlags, st *store.Store) server.Config {
	return server.Config{
		CacheSize:     f.cache,
		MaxSolves:     2,
		ServePool:     32,
		SolveWait:     2 * time.Minute,
		SolveDeadline: 2 * time.Minute,
		Seed:          1,
		CG:            cgOptions(),
		Store:         st,
	}
}

// tracedRun drives an in-process server through Handler().ServeHTTP
// with no network. After each request it replays, on that request's
// exact bytes, the public calls the handler path makes, each as a
// sibling span of the request's server.serve_http span.
type tracedRun struct {
	in       *inputs
	tr       *tracer
	h        http.Handler
	srvStore *store.Store // the in-process server's store: read-through replays read it
	replay   *store.Store // replayed WriteEntry calls commit here
	mechs    map[string]*core.Mechanism
	rng      *rand.Rand
	ops      []int // request ids of measured operations (not set-up solves)
	locs     int   // locations across measured operations
	reqBytes int   // request bytes across measured operations
	solves   []solveStats
	failures int
}

type solveStats struct {
	rounds, columns int
	gap             float64
	entryBytes      int
}

// runTraced performs the traced run and its untraced twin. It returns
// the per-layer metrics they yield, each replayed layer's share of the
// in-process operation time, and how many operations failed their
// output checks.
func runTraced(in *inputs, flags serverFlags, dir string) (map[string]metric, map[string]float64, int, error) {
	open := func(name string) (*store.Store, error) { return store.Open(filepath.Join(dir, name)) }
	srvStore, err := open("traced-store")
	if err != nil {
		return nil, nil, 0, err
	}
	replay, err := open("replay-store")
	if err != nil {
		return nil, nil, 0, err
	}
	ctx := context.Background()
	srv := server.New(ctx, inProcessConfig(flags, srvStore))
	defer srv.Shutdown(ctx)
	t := &tracedRun{
		in: in, tr: newTracer(), h: srv.Handler(), srvStore: srvStore, replay: replay,
		mechs: map[string]*core.Mechanism{}, rng: rand.New(rand.NewSource(1)),
	}

	// Set-up solves are traced too: they are where serving workloads
	// exercise the solver.
	req := 0
	setup, ops := setupBodies(in), opCount(in)
	for _, body := range setup {
		if err := t.solve(req, body); err != nil {
			return nil, nil, 0, fmt.Errorf("traced set-up solve: %w", err)
		}
		req++
	}
	for i := 0; i < ops; i++ {
		t.ops = append(t.ops, req)
		var err error
		if in.w.solve {
			t.reqBytes += len(in.bodies[i])
			err = t.solve(req, in.bodies[i])
		} else {
			t.reqBytes += len(in.plan[i].body)
			t.locs += in.plan[i].locs
			err = t.obfuscate(req, in.plan[i])
		}
		if err != nil {
			t.failures++
		}
		req++
	}
	if err := t.tr.write(filepath.Join(dir, "spans.json")); err != nil {
		return nil, nil, 0, err
	}

	untracedOp, allocs, err := untracedPass(in, flags, dir, setup, ops)
	if err != nil {
		return nil, nil, 0, err
	}
	m, shares := t.metrics(untracedOp, allocs)
	return m, shares, t.failures, nil
}

// setupBodies are the /solve bodies a workload's set-up sends.
func setupBodies(in *inputs) [][]byte {
	if in.w.solve {
		return [][]byte{in.warmBody}
	}
	return in.bodies
}

func opCount(in *inputs) int {
	if in.w.solve {
		return min(tracedSolveOps, len(in.specs))
	}
	return min(tracedServeOps, len(in.plan))
}

// request builds the measured operation i as an in-process request.
func request(in *inputs, i int) *http.Request {
	if in.w.solve {
		return httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(in.bodies[i]))
	}
	return httptest.NewRequest(http.MethodPost, "/obfuscate", bytes.NewReader(in.plan[i].body))
}

// serve times one in-process request as the root span of req.
func (t *tracedRun) serve(req int, r *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	root := t.tr.begin(req, -1, "server.serve_http")
	t.h.ServeHTTP(rec, r)
	t.tr.end(root)
	return rec
}

// timed runs f as a sibling span of req.
func (t *tracedRun) timed(req int, name string, f func()) {
	s := t.tr.begin(req, -1, name)
	f()
	t.tr.end(s)
}

func (t *tracedRun) solve(req int, body []byte) error {
	rec := t.serve(req, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
	var spec serial.SolveSpec
	var derr, verr error
	var key string
	t.timed(req, "serial.decode", func() { derr = json.Unmarshal(body, &spec) })
	if derr != nil {
		return derr
	}
	t.timed(req, "serial.validate", func() { verr = spec.Validate() })
	t.timed(req, "serial.digest", func() { key = spec.Digest() })
	resp, err := checkSolve(rec.Code, rec.Body.Bytes(), key, t.in.w.tier.k)
	if err != nil || verr != nil {
		return fmt.Errorf("solve %s: %v %v", key, err, verr)
	}

	var part *discretize.Partition
	var pr *core.Problem
	t.timed(req, "discretize.new", func() { part, err = partitionFor(&spec) })
	if err != nil {
		return err
	}
	t.timed(req, "core.new_problem", func() { pr, err = newProblem(part, &spec) })
	if err != nil {
		return err
	}
	opts := cgOptions()
	cg := t.tr.begin(req, -1, "core.solve_cg")
	opts.OnIteration = func(_ int, it core.CGIteration) {
		now := time.Now()
		t.tr.add(req, cg, "core.cg_round", now.Add(-it.Elapsed), now)
	}
	res, err := core.SolveCGCtx(context.Background(), pr, opts)
	t.tr.end(cg)
	if err != nil {
		return err
	}
	var served *core.Mechanism
	var etdd float64
	t.timed(req, "core.enforce_geoi", func() { served, etdd, err = pr.EnforceGeoI(res.Mechanism, serveTol) })
	if err != nil {
		return err
	}
	se := &serial.StoredEntry{Spec: spec, Tier: serial.QualityOptimal, ETDD: etdd, Bound: res.LowerBound, K: served.K(), Z: served.Z}
	t.timed(req, "store.write_entry", func() { err = t.replay.WriteEntry(se) })
	if err != nil {
		return err
	}
	enc, err := serial.EncodeStoredEntry(se)
	if err != nil {
		return err
	}
	t.timed(req, "serial.encode", func() { _, err = json.Marshal(&resp) })
	st := solveStats{rounds: len(res.Iterations), gap: (etdd - res.LowerBound) / etdd, entryBytes: len(enc)}
	for _, it := range res.Iterations {
		st.columns += it.ColumnsAdded
	}
	t.solves = append(t.solves, st)
	return err
}

func (t *tracedRun) obfuscate(req int, a arrival) error {
	rec := t.serve(req, httptest.NewRequest(http.MethodPost, "/obfuscate", bytes.NewReader(a.body)))
	var r serial.ObfuscateRequest
	var err error
	t.timed(req, "serial.decode", func() { err = json.Unmarshal(a.body, &r) })
	if err != nil {
		return err
	}
	t.timed(req, "serial.validate", func() { err = r.Validate() })
	if err != nil {
		return err
	}
	var key string
	t.timed(req, "serial.digest", func() { key = r.Digest() })
	resp, err := checkObfuscate(rec.Code, rec.Body.Bytes(), t.in.digests[a.spec], a.locs, t.in.graph)
	if err != nil {
		return err
	}
	if !resp.Cached {
		if err := t.readThrough(req, key, &r.SolveSpec); err != nil {
			return err
		}
	}
	mech, err := t.mechanism(key)
	if err != nil {
		return err
	}
	g := t.in.graph
	t.timed(req, "core.sample", func() {
		for _, l := range r.Locations {
			mech.Sample(t.rng, roadnet.LocationFromStart(g, roadnet.EdgeID(l.Road), l.FromStart))
		}
	})
	t.timed(req, "serial.encode", func() { _, err = json.Marshal(&resp) })
	return err
}

// readThrough replays the cache-miss path vlpserved takes for a spec
// committed to its store: load the snapshot, rebuild the problem, and
// re-verify the matrix before serving it.
func (t *tracedRun) readThrough(req int, key string, spec *serial.SolveSpec) error {
	var se *serial.StoredEntry
	var part *discretize.Partition
	var pr *core.Problem
	var err error
	t.timed(req, "store.load_entry", func() { se, err = t.srvStore.LoadEntry(key) })
	if err != nil {
		return err
	}
	t.timed(req, "discretize.new", func() { part, err = partitionFor(spec) })
	if err != nil {
		return err
	}
	t.timed(req, "core.new_problem", func() { pr, err = newProblem(part, spec) })
	if err != nil {
		return err
	}
	t.timed(req, "core.enforce_geoi", func() {
		m := &core.Mechanism{Part: pr.Part, Z: se.Z}
		if err = m.Validate(); err == nil {
			_, _, err = pr.EnforceGeoI(m, serveTol)
		}
	})
	return err
}

// mechanism returns the stored matrix the server samples spec key from.
func (t *tracedRun) mechanism(key string) (*core.Mechanism, error) {
	if m, ok := t.mechs[key]; ok {
		return m, nil
	}
	se, err := t.srvStore.LoadEntry(key)
	if err != nil {
		return nil, err
	}
	m := &core.Mechanism{Part: t.in.part, Z: se.Z}
	t.mechs[key] = m
	return m, m.Validate()
}

// untracedPass repeats the traced run's set-up and operations on a fresh
// in-process server with no spans and no replays. It returns the mean
// time per operation and the heap allocations per operation
// (runtime.MemStats.Mallocs delta, which includes building the request
// recorder).
func untracedPass(in *inputs, flags serverFlags, dir string, setup [][]byte, ops int) (time.Duration, float64, error) {
	st, err := store.Open(filepath.Join(dir, "untraced-store"))
	if err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	srv := server.New(ctx, inProcessConfig(flags, st))
	defer srv.Shutdown(ctx)
	h := srv.Handler()
	for _, body := range setup {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("untraced set-up solve: status %d", rec.Code)
		}
	}
	reqs := make([]*http.Request, ops)
	for i := range reqs {
		reqs[i] = request(in, i)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, r := range reqs {
		h.ServeHTTP(httptest.NewRecorder(), r)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed / time.Duration(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops), nil
}

// metrics folds the spans into the per-layer metrics. Per-operation
// figures average over the measured operations; per-call figures
// average over every call of the layer, set-up solves included. It also
// returns each replayed layer's share of the in-process operation time.
func (t *tracedRun) metrics(untracedOp time.Duration, allocs float64) (map[string]metric, map[string]float64) {
	isOp := make(map[int]bool, len(t.ops))
	for _, r := range t.ops {
		isOp[r] = true
	}
	opSum := map[string]time.Duration{}   // over measured operations
	callSum := map[string]time.Duration{} // over every call
	calls := map[string]int{}
	for _, s := range t.tr.spans {
		callSum[s.Name] += s.dur()
		calls[s.Name]++
		if isOp[s.Req] {
			opSum[s.Name] += s.dur()
		}
	}
	n := float64(len(t.ops))
	var replayed time.Duration
	shares := map[string]float64{}
	for name, d := range opSum {
		if name == "server.serve_http" || name == "core.cg_round" {
			continue
		}
		replayed += d
		shares[name] = float64(d) / float64(opSum["server.serve_http"])
	}
	perOp := func(name string, unit time.Duration) float64 { return float64(opSum[name]) / n / float64(unit) }
	perCall := func(name string, unit time.Duration) float64 {
		if calls[name] == 0 {
			return 0
		}
		return float64(callSum[name]) / float64(calls[name]) / float64(unit)
	}
	var rounds, columns, gap, entryBytes float64
	for _, s := range t.solves {
		rounds += float64(s.rounds)
		columns += float64(s.columns)
		gap += s.gap
		entryBytes += float64(s.entryBytes)
	}
	ns := float64(max(len(t.solves), 1))
	samplePerLoc := 0.0
	if t.locs > 0 {
		samplePerLoc = float64(opSum["core.sample"]) / float64(t.locs)
	}
	serveHTTP := perOp("server.serve_http", time.Microsecond)
	m := map[string]metric{
		"server.serve_http_us": {serveHTTP, "us"},
		"server.self_us":       {float64(opSum["server.serve_http"]-replayed) / n / float64(time.Microsecond), "us"},
		"server.allocs_per_op": {allocs, "count"},
		"serial.req_bytes":     {float64(t.reqBytes) / n, "bytes"},
		"serial.decode_us":     {perOp("serial.decode", time.Microsecond), "us"},
		"serial.validate_us":   {perOp("serial.validate", time.Microsecond), "us"},
		"serial.digest_us":     {perOp("serial.digest", time.Microsecond), "us"},
		"serial.encode_us":     {perOp("serial.encode", time.Microsecond), "us"},
		"core.sample_ns":       {samplePerLoc, "ns"},
		"discretize.new_ms":    {perCall("discretize.new", time.Millisecond), "ms"},
		"core.new_problem_ms":  {perCall("core.new_problem", time.Millisecond), "ms"},
		"core.enforce_geoi_ms": {perCall("core.enforce_geoi", time.Millisecond), "ms"},
		"core.solve_cg_ms":     {perCall("core.solve_cg", time.Millisecond), "ms"},
		"core.cg_rounds":       {rounds / ns, "count"},
		"core.round_ms":        {perCall("core.cg_round", time.Millisecond), "ms"},
		"core.columns_added":   {columns / ns, "count"},
		"core.gap_ratio":       {gap / ns, "ratio"},
		"store.load_entry_ms":  {perCall("store.load_entry", time.Millisecond), "ms"},
		"store.write_entry_ms": {perCall("store.write_entry", time.Millisecond), "ms"},
		"store.entry_bytes":    {entryBytes / ns, "bytes"},
		"trace.overhead_frac":  {serveHTTP/(float64(untracedOp)/float64(time.Microsecond)) - 1, "ratio"},
		"trace.untraced_op_us": {float64(untracedOp) / float64(time.Microsecond), "us"},
	}
	return m, shares
}
