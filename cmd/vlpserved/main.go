// Command vlpserved is the long-lived obfuscation service: it accepts
// serialized road networks + solve parameters over HTTP, solves each
// distinct spec once (deduplicating concurrent requests) and serves
// obfuscation from a bounded LRU of cached mechanisms.
//
// Usage:
//
//	vlpserved [-addr :8750] [-cache 16] [-solve-pool 2] [-serve-pool 32]
//	          [-solve-deadline 2m] [-seed 1] [-store-dir DIR]
//	          [-fleet] [-advertise URL] [-instance NAME]
//	          [-lease-ttl 10s] [-fleet-poll lease-ttl/3] [-drain 5m]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Every instance solves with the same column-generation stop rule as
// vlp.Build (ξ −0.05, 2% relative gap, defined once as
// core.CGOptions.ServingStop), so the mechanism a spec digest names
// never depends on process flags. The durable store is
// always on: completed mechanisms and each road network's column pool
// (every 8 CG rounds of the solve that seeds it, and at its end) are
// snapshotted to -store-dir. After a restart a cold solve on a stored
// network resumes from its pool; startup itself solves nothing.
//
// Serving is two admission tiers: -solve-pool bounds concurrent cold
// column-generation solves (excess cold requests get 429), -serve-pool
// bounds concurrent cached sampling on a disjoint pool so cached
// obfuscation never queues behind cold solves, and concurrent
// same-digest cold requests share one solve (singleflight). perfbench
// (perfbench/README.md) measures the resulting serving cost end to end.
//
// Fleet mode (-fleet): N instances share one -store-dir. A TTL lease
// in the store elects a single durable writer; the leader solves and
// commits (every commit fenced by its lease token), followers serve
// read-through from the store, proxy misses to the leader's -advertise
// URL, or degrade to the exponential-fallback rung. Kill the leader
// and a follower takes over within one -lease-ttl, resuming what the
// dead leader was solving from stored pools on first request. See the
// README's "Fleet quickstart".
//
// Endpoints (JSON bodies; see internal/serial for the wire structs):
//
//	POST /solve      {"network": {...}, "delta": D, "epsilon": E, ...}
//	POST /obfuscate  same spec + "locations": [{"road": R, "from_start": X}, ...]
//	GET  /stats      cache hits/misses, solve latencies, per-mechanism ETDD
//	GET  /healthz    readiness (503 once draining)
//
// A solve that cannot finish — per-solve deadline, every waiter gone,
// drain expiry — degrades instead of failing: the service serves the
// interrupted run's best incumbent, or the closed-form exponential
// mechanism, always repaired to full (ε, r)-Geo-I feasibility. See the
// README's "Failure semantics" section.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8750", "listen address")
	cache := flag.Int("cache", 16, "mechanism LRU capacity")
	solvePool := flag.Int("solve-pool", 2, "solve-tier pool: max concurrent cold solves, excess gets 429")
	servePool := flag.Int("serve-pool", 32, "serve-tier pool: max concurrent sampling requests, disjoint from the solve pool")
	solveDeadline := flag.Duration("solve-deadline", 2*time.Minute, "max wall time per CG solve before it degrades to its incumbent, which its waiters receive (0 = no per-solve deadline; a waiter then gives up with 504 after 2m)")
	seed := flag.Int64("seed", 1, "base sampler seed")
	storeDir := flag.String("store-dir", "", "durable snapshot store directory; empty selects vlpserved-store under the OS temp dir")
	fleet := flag.Bool("fleet", false, "join a shared-store serving fleet: lease-elected single writer, fenced commits")
	advertise := flag.String("advertise", "", "base URL followers use to proxy solves to this instance while it leads (e.g. http://10.0.0.5:8750)")
	instance := flag.String("instance", "", "fleet instance name, unique per process (default vlpserved-<pid>)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "fleet lease duration: a dead leader is replaced within one TTL")
	fleetPoll := flag.Duration("fleet-poll", 0, "fleet heartbeat/refresh cadence (0 = lease-ttl/3)")
	drain := flag.Duration("drain", 5*time.Minute, "shutdown drain budget for in-flight solves")
	cpuprofile := flag.String("cpuprofile", "", "profile CPU from startup until shutdown, written to this file")
	memprofile := flag.String("memprofile", "", "write a heap/alloc profile at shutdown to this file")
	flag.Parse()

	// Chaos hook, opt-in via environment so a production binary is
	// inert: VLP_FAULT_CTL=1 mounts POST/GET/DELETE /debug/faults so a
	// harness can arm fault sites in a running process between phases.
	faultCtl := os.Getenv("VLP_FAULT_CTL") != ""

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

	dir := *storeDir
	if dir == "" {
		dir = filepath.Join(os.TempDir(), "vlpserved-store")
	}
	open := store.Open
	if *fleet {
		// Fleet commits must be fenced by the lease token.
		open = store.OpenFleet
	}
	st, err := open(dir)
	if err != nil {
		fatalf("store: %v", err)
	}
	var fleetCfg *server.FleetConfig
	if *fleet {
		fleetCfg = &server.FleetConfig{
			Instance:  *instance,
			Advertise: *advertise,
			TTL:       *leaseTTL,
			Poll:      *fleetPoll,
		}
	}

	srv := server.New(context.Background(), server.Config{
		CacheSize:     *cache,
		MaxSolves:     *solvePool,
		ServePool:     *servePool,
		SolveDeadline: *solveDeadline,
		Seed:          *seed,
		Store:         st,
		Fleet:         fleetCfg,
	})
	mode := "solo"
	if *fleet {
		mode = "fleet member"
	}
	fmt.Fprintf(os.Stderr, "vlpserved: durable store at %s (%s)\n", st.Dir(), mode)
	handler := srv.Handler()
	if faultCtl {
		mux := http.NewServeMux()
		mux.Handle("/debug/faults", faultinject.Handler())
		mux.Handle("/", handler)
		handler = mux
		fmt.Fprintf(os.Stderr, "vlpserved: fault control surface mounted at /debug/faults\n")
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "vlpserved: listening on %s (cache %d, solve pool %d, serve pool %d)\n",
		*addr, *cache, *solvePool, *servePool)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatalf("listen: %v", err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "vlpserved: %v, draining\n", sig)
	}

	// Flip /healthz to 503 first so load balancers stop routing here
	// while the listener finishes in-flight requests, then drain the
	// detached solves. Past the drain budget, srv.Shutdown cancels the
	// stragglers and the degradation ladder banks their incumbents.
	srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "vlpserved: http shutdown: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "vlpserved: solve drain: %v\n", err)
	}
}

// writeMemProfile dumps an allocation profile after a forced GC; it runs
// on the graceful-shutdown path, after the drain completes.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vlpserved: memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "vlpserved: memprofile: %v\n", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vlpserved: "+format+"\n", args...)
	os.Exit(1)
}
