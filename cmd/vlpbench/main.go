// Command vlpbench runs the tracked solver benchmark suite and emits a
// machine-readable report, so warm-start and kernel regressions show up
// as numbers in version control rather than anecdotes.
//
// For every tracked size it measures two solve paths of SolveCG
// (persistent, warm-started master + pricing):
//
//   - warm: a solve from seed columns at the tracked rule (ξ 0, a 1%
//     relative gap), as BenchmarkSolveCG in the repository's
//     bench_test.go;
//   - donor: a resume from a finished run's in-memory state, the path a
//     server's miss on an already-solved road network takes: one seeded
//     warm-up solve at the serving stop rule, then resumes of never-seen
//     ±0.1% jitters of its prior at the same rule.
//
// Each row records ns/op, bytes/op, allocs/op, column-generation rounds,
// master Newton iterations and master wall time per op, the stop rule
// and the ETDD of one observed solve. Seeded rows run -benchtime ops,
// donor rows a fixed 100 (a resume is about a hundred times cheaper
// than a seeded solve at K44). Serving is measured end to end by
// perfbench (perfbench/README.md), not here.
//
// Usage:
//
//	vlpbench [-out BENCH_solver.json] [-benchtime 3x] [-quick]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
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
	Stop        string `json:"stop"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	// CGRounds, MasterMsPerOp and IPMItersPerOp are per op: the
	// column-generation rounds, and the master solves' wall time and
	// Newton iterations summed over them.
	CGRounds      float64 `json:"cg_rounds"`
	MasterMsPerOp float64 `json:"master_ms_per_op"`
	IPMItersPerOp float64 `json:"ipm_iters_per_op"`
	ETDD          float64 `json:"etdd,omitempty"`
}

type sizeReport struct {
	Size  string      `json:"size"`
	K     int         `json:"k"`
	Warm  measurement `json:"warm"`
	Donor measurement `json:"donor"`
}

type report struct {
	GeneratedUnix  int64        `json:"generated_unix"`
	GoVersion      string       `json:"go_version"`
	GOMAXPROCS     int          `json:"gomaxprocs"`
	BenchTime      string       `json:"benchtime"`
	DonorBenchTime string       `json:"donor_benchtime"`
	SolveCG        []sizeReport `json:"solve_cg"`
}

// The stop rules of the two rows.
var (
	seededStop = core.CGOptions{Xi: 0, RelGap: 0.01}
	donorStop  = core.CGOptions{}.ServingStop()
)

// donorBenchtime is the benchtime of every donor row.
const donorBenchtime = "100x"

func main() {
	testing.Init() // registers test.benchtime before we set it below
	out := flag.String("out", "BENCH_solver.json", "output report path (- for stdout)")
	benchtime := flag.String("benchtime", "3x", "benchtime of each seeded solve benchmark (e.g. 3x, 2s)")
	quick := flag.Bool("quick", false, "smallest size only (CI smoke)")
	flag.Parse()

	rep := report{
		GeneratedUnix:  time.Now().Unix(),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		BenchTime:      *benchtime,
		DonorBenchTime: donorBenchtime,
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
		setBenchtime(*benchtime)
		warm := measure(seededStop, nil, func(int) *core.Problem { return pr })
		fmt.Fprintf(os.Stderr, " %s; donor resume...", time.Duration(warm.NsPerOp))
		setBenchtime(donorBenchtime)
		donor := measureDonor(pr)
		fmt.Fprintf(os.Stderr, " %s\n", time.Duration(donor.NsPerOp))
		rep.SolveCG = append(rep.SolveCG, sizeReport{Size: size.Name, K: pr.Part.K(), Warm: warm, Donor: donor})
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

func setBenchtime(v string) {
	if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(v); err != nil {
		fatalf("bad benchtime %q: %v", v, err)
	}
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

// measureDonor measures resumes from the in-memory state of a seeded
// solve of pr at the serving stop rule: op i solves the i-th of a fixed
// sequence of ±0.1% jitters of pr's prior on pr's geometry.
func measureDonor(pr *core.Problem) measurement {
	warmup, err := core.SolveCG(pr, donorStop)
	if err != nil {
		fatalf("donor warm-up: %v", err)
	}
	var probs []*core.Problem
	problem := func(i int) *core.Problem {
		for len(probs) <= i {
			rng := rand.New(rand.NewSource(int64(46 + len(probs))))
			prior := make([]float64, len(pr.PriorP))
			sum := 0.0
			for j, p := range pr.PriorP {
				prior[j] = p * (1 + 0.001*(2*rng.Float64()-1))
				sum += prior[j]
			}
			for j := range prior {
				prior[j] /= sum
			}
			q, err := core.NewProblemOn(pr.Geometry, prior, prior)
			if err != nil {
				fatalf("jittered prior: %v", err)
			}
			probs = append(probs, q)
		}
		return probs[i]
	}
	return measure(donorStop, warmup.State, problem)
}

// measure benchmarks SolveCG at stop, resumed from resume (nil: from
// seed columns), op i solving problem(i); problems are built before the
// timer starts. One observed solve of problem(0), outside the timing,
// gives the ETDD.
func measure(stop core.CGOptions, resume *core.CGState, problem func(i int) *core.Problem) measurement {
	opts := stop
	opts.Resume = resume
	res, err := core.SolveCG(problem(0), opts)
	if err != nil {
		fatalf("solve: %v", err)
	}
	var rounds, iters int
	var master time.Duration
	opts.OnIteration = func(_ int, it core.CGIteration) {
		rounds++
		iters += it.MasterIterations
		master += it.MasterElapsed
	}
	var perOp [3]float64
	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			problem(i)
		}
		rounds, iters, master = 0, 0, 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveCG(problem(i), opts); err != nil {
				b.Fatal(err)
			}
		}
		n := float64(b.N)
		perOp = [3]float64{float64(rounds) / n, math.Round(float64(master.Microseconds())/n) / 1e3, float64(iters) / n}
	})
	return measurement{
		Stop:          fmt.Sprintf("xi %g, relgap %g", stop.Xi, stop.RelGap),
		NsPerOp:       br.NsPerOp(),
		BytesPerOp:    br.AllocedBytesPerOp(),
		AllocsPerOp:   br.AllocsPerOp(),
		CGRounds:      perOp[0],
		MasterMsPerOp: perOp[1],
		IPMItersPerOp: perOp[2],
		ETDD:          res.ETDD,
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vlpbench: "+format+"\n", args...)
	os.Exit(1)
}
