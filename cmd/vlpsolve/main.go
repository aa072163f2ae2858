// Command vlpsolve solves the D-VLP obfuscation LP for a road network
// produced by vlpgen and emits the mechanism as JSON, repaired to the
// Geo-I ceiling vlpserved serves at (core.GeoITol).
//
// Usage:
//
//	vlpsolve -in network.json [-eps E] [-radius R] [-delta D]
//	         [-exact] [-xi X] [-out mech.json] [-stats]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/serial"
)

func main() {
	in := flag.String("in", "", "input network JSON (from vlpgen); required")
	out := flag.String("out", "", "output mechanism JSON (default stdout)")
	eps := flag.Float64("eps", 5, "Geo-I epsilon (1/km)")
	radius := flag.Float64("radius", 0, "Geo-I protection radius r (km); 0 = all pairs")
	delta := flag.Float64("delta", 0.1, "interval length (km)")
	exact := flag.Bool("exact", false, "solve to optimality instead of the 2% dual gap")
	xi := flag.Float64("xi", -0.01, "column-generation termination threshold ξ (≤ 0)")
	stats := flag.Bool("stats", false, "print per-iteration convergence to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the solve to this file")
	memprofile := flag.String("memprofile", "", "write a post-solve heap profile to this file")
	flag.Parse()

	if *in == "" {
		fatalf("-in is required")
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	defer writeMemProfile(*memprofile)
	f, err := os.Open(*in)
	if err != nil {
		fatalf("open: %v", err)
	}
	var payload struct {
		serial.Network
		Prior []float64 `json:"prior"`
	}
	err = serial.ReadJSON(f, &payload)
	f.Close()
	if err != nil {
		fatalf("decode: %v", err)
	}
	g, err := payload.ToGraph()
	if err != nil {
		fatalf("network: %v", err)
	}

	part, err := discretize.New(g, *delta)
	if err != nil {
		fatalf("discretize: %v", err)
	}
	var prior []float64
	if len(payload.Prior) == part.K() {
		prior = payload.Prior
	} else if len(payload.Prior) > 0 {
		fmt.Fprintf(os.Stderr, "vlpsolve: prior has %d entries but delta %.3g yields K=%d; using uniform\n",
			len(payload.Prior), *delta, part.K())
	}
	pr, err := core.NewProblem(part, core.Config{
		Epsilon: *eps, Radius: *radius, PriorP: prior, PriorQ: prior,
	})
	if err != nil {
		fatalf("problem: %v", err)
	}

	opts := core.CGOptions{Xi: *xi, RelGap: 0.02}
	if *exact {
		opts = core.CGOptions{Xi: 0}
	}
	if *stats {
		opts.OnIteration = func(iter int, it core.CGIteration) {
			fmt.Fprintf(os.Stderr, "iter %d: master %.6g minZeta %.6g bound %.6g added %d (%s)\n",
				iter, it.MasterObj, it.MinZeta, it.LowerBound, it.ColumnsAdded, it.Elapsed.Round(time.Millisecond))
		}
	}
	start := time.Now()
	sol, err := core.SolveCG(pr, opts)
	if err != nil {
		fatalf("solve: %v", err)
	}
	// Solver output is Geo-I feasible only to solver tolerance; write the
	// mechanism vlpserved would serve, repaired to core.GeoITol.
	mech, etdd, err := pr.EnforceGeoI(sol.Mechanism, core.GeoITol)
	if err != nil {
		fatalf("geo-i repair: %v", err)
	}
	fmt.Fprintf(os.Stderr, "vlpsolve: K=%d, ETDD=%.6g km (%.6g before Geo-I repair), bound=%.6g km, %d iterations, %s\n",
		part.K(), etdd, sol.ETDD, sol.LowerBound, len(sol.Iterations), time.Since(start).Round(time.Millisecond))
	if sol.Stopped != "" {
		fmt.Fprintf(os.Stderr, "vlpsolve: note: %s\n", sol.Stopped)
	}

	w := os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fatalf("create: %v", err)
		}
		defer of.Close()
		w = of
	}
	if err := serial.WriteJSON(w, serial.FromMechanism(mech, *delta, *eps, *radius, etdd, sol.LowerBound)); err != nil {
		fatalf("encode: %v", err)
	}
}

// writeMemProfile dumps an allocation profile after a forced GC, so the
// numbers reflect live retention plus cumulative alloc sites rather than
// whatever garbage the last CG round left behind.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("memprofile: %v", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fatalf("memprofile: %v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vlpsolve: "+format+"\n", args...)
	os.Exit(1)
}
