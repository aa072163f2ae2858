package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/discretize"
	"repro/internal/roadnet"
	"repro/internal/serial"
	"repro/internal/trace"
)

// tier is one road network plus discretisation. The network and the
// trace-derived base prior are fixed constants of the tier, so K and the
// shape of every solve are the same for every seed; the seed varies only
// the per-spec prior perturbation, the request mix and the locations.
type tier struct {
	rows  int     // grid side (rows = cols)
	delta float64 // interval length, km
	k     int     // interval count the grid and delta give
}

var (
	// tierK48 is a 3×3 grid at δ=0.15: K=48, 0.02–0.3 s CG solves
	// depending on ε.
	tierK48 = tier{rows: 3, delta: 0.15, k: 48}
	// tierK45 is the cheaper 4×4 grid at δ=0.3: K=45, one-round ~20 ms
	// solves at ε=4.
	tierK45 = tier{rows: 4, delta: 0.3, k: 45}
)

// Fixed generator seeds of the tier networks and base priors; these are
// part of the benchmark definition, not of the workload seed.
const (
	netSeed   = 1
	traceSeed = 7
	// priorJitter is the relative per-interval perturbation that makes
	// each spec's prior (and so its digest) distinct while keeping every
	// solve close to the same problem.
	priorJitter = 0.001
)

// workload is one traffic mix. Every constant that fixes a workload's
// inputs lives in this table, so for a given seed the parent and the
// change send the same request bytes in the same order.
type workload struct {
	name string
	tier tier
	// specs is the digest pool size of a serving workload.
	specs int
	// epsilon gives spec i's ε.
	epsilon func(i int) float64
	// Serving workloads: open loop at rate requests per second, locs
	// locations per /obfuscate, Zipf(zipfS, 1) popularity over the pool,
	// vlpserved -cache capacity.
	locs  int
	rate  float64
	zipfS float64
	cache int
	// solve marks the closed-loop /solve workload: one client walks a
	// list of never-seen specs until the run time is up.
	solve bool
	// quiet is the least share of operations, from the least-stolen
	// windows, that the timed end-to-end metrics are computed over (see
	// steal.go).
	quiet float64
}

var workloads = []*workload{
	{
		name: "serve-hot", tier: tierK48, specs: 8,
		epsilon: func(i int) float64 { return 5 + 0.5*float64(i) },
		locs:    4, rate: 500, zipfS: 1.2, cache: 16, quiet: 0.25,
	},
	{
		name: "serve-batch", tier: tierK48, specs: 8,
		epsilon: func(i int) float64 { return 5 + 0.5*float64(i) },
		locs:    256, rate: 100, zipfS: 1.2, cache: 16, quiet: 0.25,
	},
	{
		name: "serve-churn", tier: tierK45, specs: 32,
		epsilon: func(int) float64 { return 4 },
		locs:    4, rate: 200, zipfS: 1.1, cache: 8, quiet: 0.25,
	},
	{
		name: "solve-cold", tier: tierK48,
		epsilon: func(int) float64 { return 6 },
		cache:   16, solve: true, quiet: 0.5,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// solveListPerSecond sizes solve-cold's spec list: far more specs than a
// run can solve, so the list never runs out before the clock does.
const solveListPerSecond = 40

// arrival is one scheduled /obfuscate request.
type arrival struct {
	due  time.Duration // offset from the start of the measured phase
	spec int           // index into inputs.specs
	locs int           // locations sent
	body []byte        // exact request bytes
}

// inputs is everything a run sends, generated from (workload, seed,
// seconds) before any timing.
type inputs struct {
	w       *workload
	graph   *roadnet.Graph
	part    *discretize.Partition
	specs   []*serial.SolveSpec // serving pool, or solve-cold's list
	digests []string
	bodies  [][]byte // /solve request bytes per spec
	// warmBody is solve-cold's set-up solve, a spec outside the list.
	warmBody   []byte
	warmDigest string
	plan       []arrival // serving workloads only
}

// tierNetwork builds the tier's fixed grid network, partition and
// trace-derived base prior.
func tierNetwork(t tier) (*roadnet.Graph, *discretize.Partition, []float64, error) {
	g := roadnet.Grid(rand.New(rand.NewSource(netSeed)), roadnet.GridConfig{
		Rows: t.rows, Cols: t.rows, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	part, err := discretize.New(g, t.delta)
	if err != nil {
		return nil, nil, nil, err
	}
	if part.K() != t.k {
		return nil, nil, nil, fmt.Errorf("tier %dx%d δ=%v has K=%d, want %d", t.rows, t.rows, t.delta, part.K(), t.k)
	}
	sim := trace.DefaultSim()
	sim.Vehicles = 60
	sim.Duration = 1800
	traces, err := trace.Simulate(rand.New(rand.NewSource(traceSeed)), g, sim)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, part, trace.PriorFromTraces(part, traces, 1), nil
}

// jitterPrior returns base with each entry scaled by a factor uniform in
// [1−priorJitter, 1+priorJitter], renormalised.
func jitterPrior(rng *rand.Rand, base []float64) []float64 {
	p := make([]float64, len(base))
	sum := 0.0
	for i, b := range base {
		p[i] = b * (1 + priorJitter*(2*rng.Float64()-1))
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// buildInputs generates a run's specs and requests. One RNG seeded by
// seed draws, in order: the spec priors, then (serving workloads) the
// Zipf spec sequence and the locations of each request.
func buildInputs(w *workload, seed int64, seconds int) (*inputs, error) {
	g, part, base, err := tierNetwork(w.tier)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, graph: g, part: part}
	net := serial.FromGraph(g)
	rng := rand.New(rand.NewSource(seed))
	newSpec := func(i int) (*serial.SolveSpec, []byte, string, error) {
		spec := &serial.SolveSpec{Network: net, Delta: w.tier.delta, Epsilon: w.epsilon(i), Prior: jitterPrior(rng, base)}
		if err := spec.Validate(); err != nil {
			return nil, nil, "", err
		}
		body, err := json.Marshal(spec)
		return spec, body, spec.Digest(), err
	}

	n := w.specs
	if w.solve {
		n = seconds * solveListPerSecond
		if _, in.warmBody, in.warmDigest, err = newSpec(-1); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		spec, body, digest, err := newSpec(i)
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, spec)
		in.bodies = append(in.bodies, body)
		in.digests = append(in.digests, digest)
	}
	if w.solve {
		return in, nil
	}

	zipf := rand.NewZipf(rng, w.zipfS, 1, uint64(n-1))
	count := int(w.rate * float64(seconds))
	interval := time.Duration(float64(time.Second) / w.rate)
	in.plan = make([]arrival, count)
	for i := range in.plan {
		s := int(zipf.Uint64())
		req := serial.ObfuscateRequest{SolveSpec: *in.specs[s], Locations: make([]serial.Loc, w.locs)}
		for j := range req.Locations {
			road := rng.Intn(g.NumEdges())
			req.Locations[j] = serial.Loc{Road: road, FromStart: rng.Float64() * g.Edge(roadnet.EdgeID(road)).Weight}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		in.plan[i] = arrival{due: time.Duration(i) * interval, spec: s, locs: w.locs, body: body}
	}
	return in, nil
}

// servedSpecs lists the pool specs the plan sends at least one request
// to, in pool order.
func (in *inputs) servedSpecs() []int {
	hit := make([]bool, len(in.specs))
	for _, a := range in.plan {
		hit[a.spec] = true
	}
	var out []int
	for i, h := range hit {
		if h {
			out = append(out, i)
		}
	}
	return out
}
