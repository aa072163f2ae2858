package vlp

// Benchmarks: one per paper figure (the regenerator code path at a small
// calibrated size — run cmd/experiments for the full series) plus the
// ablation benches called out in DESIGN.md and micro-benchmarks of the
// hot substrates.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/assign"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/geoi"
	"repro/internal/lp"
	"repro/internal/planar"
	"repro/internal/realworld"
	"repro/internal/roadnet"
	"repro/internal/serial"
	"repro/internal/server"
	"repro/internal/trace"
)

// benchEnv is a lazily-built shared fixture: a small city, its
// partition, fleet traces and priors.
type benchEnv struct {
	g     *roadnet.Graph
	part  *discretize.Partition
	prior []float64
	prob  *core.Problem
	mech  *core.Mechanism
}

var (
	benchOnce sync.Once
	bench     benchEnv
)

func benchSetup(b *testing.B) *benchEnv {
	b.Helper()
	benchOnce.Do(func() {
		rng := rand.New(rand.NewSource(77))
		bench.g = roadnet.Grid(rng, roadnet.GridConfig{
			Rows: 3, Cols: 3, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
		})
		part, err := discretize.New(bench.g, 0.15)
		if err != nil {
			panic(err)
		}
		bench.part = part
		traces, err := trace.Simulate(rng, bench.g, trace.SimConfig{
			Vehicles: 12, Duration: 900, RecordEvery: 7,
			SpeedKmh: 30, CenterBias: 1, DropoutProb: 0.2,
		})
		if err != nil {
			panic(err)
		}
		bench.prior = trace.PriorFromTraces(part, traces, 0.5)
		prob, err := core.NewProblem(part, core.Config{
			Epsilon: 5, PriorP: bench.prior, PriorQ: bench.prior,
		})
		if err != nil {
			panic(err)
		}
		bench.prob = prob
		sol, err := core.SolveCG(prob, core.CGOptions{Xi: -0.1, RelGap: 0.05})
		if err != nil {
			panic(err)
		}
		bench.mech = sol.Mechanism
	})
	return &bench
}

// --- Per-figure benches -------------------------------------------------

func BenchmarkFig09DatasetStats(b *testing.B) {
	e := benchSetup(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traces, err := trace.Simulate(rng, e.g, trace.SimConfig{
			Vehicles: 12, Duration: 600, RecordEvery: 7, SpeedKmh: 30, CenterBias: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		trace.Stats(traces)
	}
}

func BenchmarkFig10LowerBound(b *testing.B) {
	e := benchSetup(b)
	for i := 0; i < b.N; i++ {
		sol, err := core.SolveCG(e.prob, core.CGOptions{Xi: 0, RelGap: 0.02})
		if err != nil {
			b.Fatal(err)
		}
		if sol.LowerBound > sol.ETDD+1e-9 {
			b.Fatal("bound above achieved quality loss")
		}
	}
}

func BenchmarkFig11VsPlanar(b *testing.B) {
	e := benchSetup(b)
	for i := 0; i < b.N; i++ {
		ours, err := core.SolveCG(e.prob, core.CGOptions{Xi: -0.1, RelGap: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		twoDb, err := planar.Solve2D(e.part, 5, 0, e.prior, planar.Options{
			CG: core.CGOptions{Xi: -0.1, RelGap: 0.05},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := attack.NewBayes(ours.Mechanism, e.prior); err != nil {
			b.Fatal(err)
		}
		if _, err := attack.NewBayes(twoDb.Mechanism, e.prior); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12EpsilonSweep(b *testing.B) {
	e := benchSetup(b)
	for i := 0; i < b.N; i++ {
		for _, eps := range []float64{2, 8} {
			pr, err := core.NewProblem(e.part, core.Config{
				Epsilon: eps, PriorP: e.prior, PriorQ: e.prior,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.SolveCG(pr, core.CGOptions{Xi: -0.1, RelGap: 0.05}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig13aConstraintReduction(b *testing.B) {
	e := benchSetup(b)
	aux := e.part.AuxGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red := geoi.Reduce(e.part, aux, 0)
		if len(red.Pairs) == 0 {
			b.Fatal("no reduced pairs")
		}
	}
}

func BenchmarkFig13bConvergence(b *testing.B) {
	e := benchSetup(b)
	for i := 0; i < b.N; i++ {
		iters := 0
		_, err := core.SolveCG(e.prob, core.CGOptions{
			Xi: 0, RelGap: 0.01,
			OnIteration: func(int, core.CGIteration) { iters++ },
		})
		if err != nil {
			b.Fatal(err)
		}
		if iters == 0 {
			b.Fatal("no iterations observed")
		}
	}
}

func BenchmarkFig13cdXiSweep(b *testing.B) {
	e := benchSetup(b)
	for i := 0; i < b.N; i++ {
		for _, xi := range []float64{-0.5, -0.1} {
			if _, err := core.SolveCG(e.prob, core.CGOptions{Xi: xi}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig13efApproxRatio(b *testing.B) {
	e := benchSetup(b)
	for i := 0; i < b.N; i++ {
		sol, err := core.SolveCG(e.prob, core.CGOptions{Xi: 0, RelGap: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		_ = sol.ETDD / sol.LowerBound
	}
}

func BenchmarkFig14Assignment(b *testing.B) {
	e := benchSetup(b)
	rng := rand.New(rand.NewSource(14))
	k := e.part.K()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vehicles := make([]int, 10)
		tasks := make([]int, 6)
		for j := range vehicles {
			vehicles[j] = rng.Intn(k)
		}
		for j := range tasks {
			tasks[j] = rng.Intn(k)
		}
		est := make([][]float64, len(tasks))
		for t, task := range tasks {
			est[t] = make([]float64, len(vehicles))
			for v, veh := range vehicles {
				rep := e.mech.SampleInterval(rng, veh)
				est[t][v] = e.part.MidDist(rep, task)
			}
		}
		if _, _, err := assign.Hungarian(est); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15HMM(b *testing.B) {
	e := benchSetup(b)
	rng := rand.New(rand.NewSource(15))
	k := e.part.K()
	trans := attack.LearnTransitions(k, [][]int{{0, 1, 2, 3, 2, 1}}, 0.01)
	hmm, err := attack.NewHMM(e.mech, e.prior, trans)
	if err != nil {
		b.Fatal(err)
	}
	reports := make([]int, 40)
	for i := range reports {
		reports[i] = rng.Intn(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := hmm.Viterbi(reports); len(got) != len(reports) {
			b.Fatal("bad viterbi output")
		}
	}
}

func benchPilot(b *testing.B, g *roadnet.Graph) {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	cfg := realworld.Config{
		Delta: 0.3, Epsilon: 5, Tasks: 4, Groups: 2,
		ReportEvery: 25, DriveTime: 300,
		CG: core.CGOptions{Xi: -0.2, RelGap: 0.1, MaxIterations: 10},
	}
	for i := 0; i < b.N; i++ {
		if _, err := realworld.Run(rng, g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17Pilot(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 3, Spacing: 0.3, OneWayFrac: 0.4})
	benchPilot(b, g)
}

func BenchmarkFig19Regions(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	a := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.5})
	bb := roadnet.Grid(rng, roadnet.GridConfig{Rows: 3, Cols: 3, Spacing: 0.15, OneWayFrac: 0.8})
	for i := 0; i < b.N; i++ {
		benchPilotOnce(b, a)
		benchPilotOnce(b, bb)
	}
}

func benchPilotOnce(b *testing.B, g *roadnet.Graph) {
	b.Helper()
	rng := rand.New(rand.NewSource(20))
	cfg := realworld.Config{
		Delta: 0.25, Epsilon: 5, Tasks: 4, Groups: 1,
		ReportEvery: 25, DriveTime: 200,
		CG: core.CGOptions{Xi: -0.2, RelGap: 0.1, MaxIterations: 8},
	}
	if _, err := realworld.Run(rng, g, cfg); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig20TaskSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 3, Spacing: 0.3})
	cfg := realworld.Config{
		Delta: 0.3, Epsilon: 5, Tasks: 4, Groups: 1,
		ReportEvery: 25, DriveTime: 200,
		CG: core.CGOptions{Xi: -0.2, RelGap: 0.1, MaxIterations: 8},
	}
	pilot, err := realworld.Run(rng, g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := core.NewProblem(pilot.Mechanism.Part, core.Config{Epsilon: cfg.Epsilon})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{4, 8} {
			c := cfg
			c.Tasks = n
			if _, err := realworld.RunGroup(rng, pr, pilot.Mechanism, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig21VsPlanarPilot(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 3, Spacing: 0.3, OneWayFrac: 0.4})
	part, err := discretize.New(g, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planar.Solve2D(part, 5, 0, nil, planar.Options{
			CG: core.CGOptions{Xi: -0.2, RelGap: 0.1, MaxIterations: 8},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTradeoffBound(b *testing.B) {
	e := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if v := e.prob.TradeoffLowerBound(5); v < 0 {
			b.Fatal("negative bound")
		}
	}
}

// --- Ablation benches ---------------------------------------------------

func BenchmarkAblationConstraintReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(30))
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3, OneWayFrac: 0.5})
	part, err := discretize.New(g, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := core.NewProblem(part, core.Config{Epsilon: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full-constraints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveDirect(pr, core.DirectOptions{FullConstraints: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveDirect(pr, core.DirectOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationDirectVsCG(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3, OneWayFrac: 0.5})
	part, err := discretize.New(g, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := core.NewProblem(part, core.Config{Epsilon: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveDirect(pr, core.DirectOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveCG(pr, core.CGOptions{Xi: 0}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationParallelPricing(b *testing.B) {
	e := benchSetup(b)
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveCG(e.prob, core.CGOptions{Xi: -0.1, RelGap: 0.05}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveCG(e.prob, core.CGOptions{Xi: -0.1, RelGap: 0.05, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Warm-start benches ---------------------------------------------------

// cgBenchSizes are the tracked problem sizes for the solver benchmark
// (cmd/vlpbench runs the same set and emits BENCH_solver.json).
var cgBenchSizes = []struct {
	Name       string
	Rows, Cols int
	Delta      float64
}{
	{"K12", 2, 2, 0.3},
	{"K24", 2, 3, 0.2},
	{"K44", 3, 3, 0.15},
}

func cgBenchProblem(rows, cols int, delta float64) (*core.Problem, error) {
	rng := rand.New(rand.NewSource(77))
	g := roadnet.Grid(rng, roadnet.GridConfig{
		Rows: rows, Cols: cols, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	part, err := discretize.New(g, delta)
	if err != nil {
		return nil, err
	}
	return core.NewProblem(part, core.Config{Epsilon: 5})
}

// BenchmarkSolveCG times the column-generation solver (persistent
// master + warm-started pricing) at the tracked sizes.
func BenchmarkSolveCG(b *testing.B) {
	for _, size := range cgBenchSizes {
		pr, err := cgBenchProblem(size.Rows, size.Cols, size.Delta)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.CGOptions{Xi: 0, RelGap: 0.01}
		b.Run(size.Name+"/warm", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveCG(pr, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benches ---------------------------------------------

func BenchmarkSimplexCoveringLP(b *testing.B) {
	rng := rand.New(rand.NewSource(40))
	p := lp.NewProblem(60)
	for j := 0; j < 60; j++ {
		p.SetObjectiveCoeff(j, 1+rng.Float64())
	}
	for i := 0; i < 40; i++ {
		terms := make([]lp.Term, 0, 12)
		for j := 0; j < 60; j++ {
			if rng.Float64() < 0.2 {
				terms = append(terms, lp.Term{Var: j, Coef: 0.5 + rng.Float64()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, lp.Term{Var: i % 60, Coef: 1})
		}
		p.AddConstraint(terms, lp.GE, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := lp.Solve(p, lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("%v %v", err, sol.Status)
		}
	}
}

func BenchmarkIPMCoveringLP(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	p := lp.NewProblem(60)
	for j := 0; j < 60; j++ {
		p.SetObjectiveCoeff(j, 1+rng.Float64())
	}
	for i := 0; i < 40; i++ {
		terms := make([]lp.Term, 0, 12)
		for j := 0; j < 60; j++ {
			if rng.Float64() < 0.2 {
				terms = append(terms, lp.Term{Var: j, Coef: 0.5 + rng.Float64()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, lp.Term{Var: i % 60, Coef: 1})
		}
		p.AddConstraint(terms, lp.GE, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := lp.SolveIPM(p, lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("%v %v", err, sol.Status)
		}
	}
}

func BenchmarkAllPairsDijkstra(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := roadnet.RomeLike(rng, roadnet.DefaultRomeLike())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllPairs()
	}
}

func BenchmarkHungarian20x30(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	cost := make([][]float64, 20)
	for i := range cost {
		cost[i] = make([]float64, 30)
		for j := range cost[i] {
			cost[i][j] = rng.Float64() * 10
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := assign.Hungarian(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostMatrix(b *testing.B) {
	e := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildCosts(e.part, e.prior, e.prior)
	}
}

func BenchmarkBayesAttack(b *testing.B) {
	e := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv, err := attack.NewBayes(e.mech, e.prior)
		if err != nil {
			b.Fatal(err)
		}
		_ = adv.AdvError()
	}
}

func BenchmarkMechanismSample(b *testing.B) {
	e := benchSetup(b)
	rng := rand.New(rand.NewSource(44))
	loc := roadnet.RandomLocation(rng, e.g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.mech.Sample(rng, loc)
	}
}

// --- Obfuscation service benches -----------------------------------------

func benchServeSpec(e *benchEnv) *serial.SolveSpec {
	return &serial.SolveSpec{
		Network: serial.FromGraph(e.g),
		Delta:   0.15,
		Epsilon: 5,
		Prior:   e.prior,
	}
}

func benchServePost(b *testing.B, h http.Handler, path string, payload []byte) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("%s returned %d: %s", path, w.Code, w.Body.String())
	}
}

// BenchmarkServeColdSolve measures the cold path: a fresh vlpserved
// instance receiving a spec it has never seen, forcing a full CG solve.
func BenchmarkServeColdSolve(b *testing.B) {
	e := benchSetup(b)
	payload, err := json.Marshal(benchServeSpec(e))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := server.New(context.Background(), server.Config{CacheSize: 1, MaxSolves: 1})
		benchServePost(b, srv.Handler(), "/solve", payload)
	}
}

// BenchmarkServeObfuscateCached measures the hot path: batched
// obfuscation against an already-cached mechanism. The acceptance bar
// for the service split is this path running ≥100× faster than the
// cold solve above.
func BenchmarkServeObfuscateCached(b *testing.B) {
	e := benchSetup(b)
	spec := benchServeSpec(e)
	srv := server.New(context.Background(), server.Config{CacheSize: 4, MaxSolves: 2, Seed: 7})
	h := srv.Handler()
	warm, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	benchServePost(b, h, "/solve", warm)

	rng := rand.New(rand.NewSource(45))
	req := serial.ObfuscateRequest{SolveSpec: *spec}
	for j := 0; j < 16; j++ {
		road := rng.Intn(e.g.NumEdges())
		w := e.g.Edge(roadnet.EdgeID(road)).Weight
		req.Locations = append(req.Locations, serial.Loc{Road: road, FromStart: rng.Float64() * w})
	}
	payload, err := json.Marshal(&req)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServePost(b, h, "/obfuscate", payload)
	}
}
