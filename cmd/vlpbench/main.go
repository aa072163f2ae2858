// Command vlpbench runs the tracked solver benchmark suite and emits a
// machine-readable report, so warm-start and kernel regressions show up
// as numbers in version control rather than anecdotes.
//
// The suite is the benchmark set from the repository's bench_test.go:
// BenchmarkSolveCG (persistent, warm-started master + pricing) at the
// tracked sizes, plus the serving-layer cold solve and cached
// obfuscation paths. For every size the report records ns/op, bytes/op,
// allocs/op and column-generation rounds, next to the archived numbers
// of solver builds that no longer exist.
//
// Usage:
//
//	vlpbench [-out BENCH_solver.json] [-benchtime 3x] [-quick]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/roadnet"
	"repro/internal/serial"
	"repro/internal/server"
	"repro/internal/trace"
)

// benchSizes mirrors the cgBenchSizes table in bench_test.go. Two
// checked-in history columns keep retired baselines visible in the
// report: DenseColdNs is the rebuild-everything ns/op of the last
// dense-kernel build (before the sparse CSC/CSR kernels landed), and
// SparseColdNs the rebuild-everything ns/op of the last sparse build
// that still had that pipeline.
var benchSizes = []struct {
	Name         string
	Rows, Cols   int
	Delta        float64
	DenseColdNs  int64
	SparseColdNs int64
}{
	{"K12", 2, 2, 0.3, 588986, 439029},
	{"K24", 2, 3, 0.2, 209022050, 176089218},
	{"K44", 3, 3, 0.15, 2086205858, 960364878},
}

type measurement struct {
	NsPerOp     int64   `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	CGRounds    int     `json:"cg_rounds,omitempty"`
	ETDD        float64 `json:"etdd,omitempty"`
}

type sizeReport struct {
	Size string      `json:"size"`
	K    int         `json:"k"`
	Warm measurement `json:"warm"`
	// Archived rebuild-everything ns/op of retired solver builds (see
	// benchSizes); history only, never re-measured.
	DenseBaselineNs int64 `json:"dense_baseline_ns"`
	SparseColdNs    int64 `json:"sparse_cold_ns"`
}

type serveReport struct {
	ColdSolve           measurement `json:"cold_solve"`
	ObfuscateCached     measurement `json:"obfuscate_cached"`
	SpeedupCachedVsCold float64     `json:"speedup_cached_vs_cold"`
}

type report struct {
	GeneratedUnix int64        `json:"generated_unix"`
	GoVersion     string       `json:"go_version"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	BenchTime     string       `json:"benchtime"`
	SolveCG       []sizeReport `json:"solve_cg"`
	Serve         *serveReport `json:"serve,omitempty"`
}

func main() {
	testing.Init() // registers test.benchtime before we set it below
	out := flag.String("out", "BENCH_solver.json", "output report path (- for stdout)")
	benchtime := flag.String("benchtime", "3x", "benchtime passed to each benchmark (e.g. 3x, 2s)")
	quick := flag.Bool("quick", false, "smallest size only, skip the serving benches (CI smoke)")
	flag.Parse()

	if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
		fatalf("bad -benchtime %q: %v", *benchtime, err)
	}

	rep := report{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		BenchTime:     *benchtime,
	}

	sizes := benchSizes
	if *quick {
		sizes = sizes[:1]
	}
	for _, size := range sizes {
		pr, err := benchProblem(size.Rows, size.Cols, size.Delta)
		if err != nil {
			fatalf("%s: %v", size.Name, err)
		}
		fmt.Fprintf(os.Stderr, "solvecg %s (K=%d)...", size.Name, pr.Part.K())
		warm := measureSolveCG(pr)
		fmt.Fprintf(os.Stderr, " %s\n", time.Duration(warm.NsPerOp))
		rep.SolveCG = append(rep.SolveCG, sizeReport{
			Size:            size.Name,
			K:               pr.Part.K(),
			Warm:            warm,
			DenseBaselineNs: size.DenseColdNs,
			SparseColdNs:    size.SparseColdNs,
		})
	}

	if !*quick {
		fmt.Fprintf(os.Stderr, "serve: cold solve + cached obfuscate...")
		sr, err := measureServe()
		if err != nil {
			fatalf("serve bench: %v", err)
		}
		rep.Serve = sr
		fmt.Fprintf(os.Stderr, " done\n")
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatalf("encode: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatalf("write: %v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// benchProblem mirrors cgBenchProblem in bench_test.go (same seed and
// grid parameters, so the tracked numbers are comparable).
func benchProblem(rows, cols int, delta float64) (*core.Problem, error) {
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

func measureSolveCG(pr *core.Problem) measurement {
	opts := core.CGOptions{Xi: 0, RelGap: 0.01}
	// One observed solve for rounds and quality, outside the timing.
	res, err := core.SolveCG(pr, opts)
	if err != nil {
		fatalf("solve: %v", err)
	}
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveCG(pr, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	return measurement{
		NsPerOp:     br.NsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
		CGRounds:    len(res.Iterations),
		ETDD:        res.ETDD,
	}
}

// measureServe mirrors BenchmarkServeColdSolve and
// BenchmarkServeObfuscateCached: POSTs against the server's handler, a
// fresh instance per op on the cold path and a pre-warmed one for the
// cached obfuscation path.
func measureServe() (*serveReport, error) {
	rng := rand.New(rand.NewSource(77))
	g := roadnet.Grid(rng, roadnet.GridConfig{
		Rows: 3, Cols: 3, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	part, err := discretize.New(g, 0.15)
	if err != nil {
		return nil, err
	}
	traces, err := trace.Simulate(rng, g, trace.SimConfig{
		Vehicles: 12, Duration: 900, RecordEvery: 7,
		SpeedKmh: 30, CenterBias: 1, DropoutProb: 0.2,
	})
	if err != nil {
		return nil, err
	}
	prior := trace.PriorFromTraces(part, traces, 0.5)
	spec := &serial.SolveSpec{
		Network: serial.FromGraph(g),
		Delta:   0.15,
		Epsilon: 5,
		Prior:   prior,
	}
	solvePayload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}

	coldRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			srv := server.New(context.Background(), server.Config{CacheSize: 1, MaxSolves: 1})
			if err := servePost(srv.Handler(), "/solve", solvePayload); err != nil {
				b.Fatal(err)
			}
		}
	})

	srv := server.New(context.Background(), server.Config{CacheSize: 4, MaxSolves: 2, Seed: 7})
	h := srv.Handler()
	if err := servePost(h, "/solve", solvePayload); err != nil {
		return nil, err
	}

	req := serial.ObfuscateRequest{SolveSpec: *spec}
	lrng := rand.New(rand.NewSource(45))
	for j := 0; j < 16; j++ {
		road := lrng.Intn(g.NumEdges())
		w := g.Edge(roadnet.EdgeID(road)).Weight
		req.Locations = append(req.Locations, serial.Loc{Road: road, FromStart: lrng.Float64() * w})
	}
	obfPayload, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	cachedRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := servePost(h, "/obfuscate", obfPayload); err != nil {
				b.Fatal(err)
			}
		}
	})

	return &serveReport{
		ColdSolve:           toMeasurement(coldRes),
		ObfuscateCached:     toMeasurement(cachedRes),
		SpeedupCachedVsCold: ratio(coldRes.NsPerOp(), cachedRes.NsPerOp()),
	}, nil
}

func servePost(h http.Handler, path string, payload []byte) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return fmt.Errorf("%s returned %d: %s", path, w.Code, w.Body.String())
	}
	return nil
}

func toMeasurement(br testing.BenchmarkResult) measurement {
	return measurement{
		NsPerOp:     br.NsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vlpbench: "+format+"\n", args...)
	os.Exit(1)
}
