// Command vlpbench runs the tracked solver benchmark suite and emits a
// machine-readable report, so warm-start and kernel regressions show up
// as numbers in version control rather than anecdotes.
//
// The suite is BenchmarkSolveCG from the repository's bench_test.go
// (persistent, warm-started master + pricing) at the tracked sizes.
// For every size the report records ns/op, bytes/op, allocs/op and
// column-generation rounds. Serving is measured end to end by perfbench
// (perfbench/README.md), not here.
//
// Usage:
//
//	vlpbench [-out BENCH_solver.json] [-benchtime 3x] [-quick]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/roadnet"
)

// benchSizes mirrors the cgBenchSizes table in bench_test.go.
var benchSizes = []struct {
	Name       string
	Rows, Cols int
	Delta      float64
}{
	{"K12", 2, 2, 0.3},
	{"K24", 2, 3, 0.2},
	{"K44", 3, 3, 0.15},
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
}

type report struct {
	GeneratedUnix int64        `json:"generated_unix"`
	GoVersion     string       `json:"go_version"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	BenchTime     string       `json:"benchtime"`
	SolveCG       []sizeReport `json:"solve_cg"`
}

func main() {
	testing.Init() // registers test.benchtime before we set it below
	out := flag.String("out", "BENCH_solver.json", "output report path (- for stdout)")
	benchtime := flag.String("benchtime", "3x", "benchtime passed to each benchmark (e.g. 3x, 2s)")
	quick := flag.Bool("quick", false, "smallest size only (CI smoke)")
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
		rep.SolveCG = append(rep.SolveCG, sizeReport{Size: size.Name, K: pr.Part.K(), Warm: warm})
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vlpbench: "+format+"\n", args...)
	os.Exit(1)
}
