// Serveclient: a well-behaved vlpserved client. The service sheds load
// on purpose — 429 past the solve-admission gate, 503 while draining —
// so a production caller wraps its requests in the retrying client
// (internal/retryhttp) instead of treating those as failures. This
// example spins up an in-process server (or targets a live one via
// -addr), then solves a spec and obfuscates a location batch through
// the retry layer, printing the quality tier of each response so
// degraded serves are visible.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/retryhttp"
	"repro/internal/roadnet"
	"repro/internal/serial"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "", "vlpserved base URL (empty: run an in-process server)")
	epsilon := flag.Float64("epsilon", 4, "privacy budget ε")
	flag.Parse()

	base := *addr
	if base == "" {
		// Self-contained demo: an in-process instance with a tight solve
		// admission gate, so the retry path actually exercises 429s when
		// the example is run with concurrent batches.
		srv := server.New(context.Background(), server.Config{MaxSolves: 1, SolveDeadline: time.Minute})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Shutdown(context.Background())
		base = ts.URL
	}

	client := &retryhttp.Client{
		HTTP:        &http.Client{Timeout: 5 * time.Minute},
		MaxAttempts: 5,
		BaseDelay:   200 * time.Millisecond,
		MaxDelay:    10 * time.Second,
	}

	// A small random downtown grid as the shared road network.
	g := roadnet.Grid(rand.New(rand.NewSource(7)), roadnet.GridConfig{
		Rows: 3, Cols: 3, Spacing: 0.3, OneWayFrac: 0.3, WeightJitter: 0.1,
	})
	spec := serial.SolveSpec{Network: serial.FromGraph(g), Delta: 0.15, Epsilon: *epsilon}

	var solved serial.SolveResponse
	if err := post(client, base+"/solve", &spec, &solved); err != nil {
		log.Fatalf("solve: %v", err)
	}
	fmt.Printf("solved %s: K=%d ETDD=%.4f quality=%s cached=%v\n",
		solved.Key[:12], solved.K, solved.ETDD, solved.Quality, solved.Cached)

	// Obfuscate a vehicle's reported positions, one batch per tick.
	rng := rand.New(rand.NewSource(42))
	req := serial.ObfuscateRequest{SolveSpec: spec}
	for i := 0; i < 8; i++ {
		road := rng.Intn(g.NumEdges())
		w := g.Edge(roadnet.EdgeID(road)).Weight
		req.Locations = append(req.Locations, serial.Loc{Road: road, FromStart: rng.Float64() * w})
	}
	var obf serial.ObfuscateResponse
	if err := post(client, base+"/obfuscate", &req, &obf); err != nil {
		log.Fatalf("obfuscate: %v", err)
	}
	fmt.Printf("obfuscated %d locations (quality=%s):\n", len(obf.Locations), obf.Quality)
	for i, loc := range obf.Locations {
		fmt.Printf("  true road %2d @ %.3f  ->  reported road %2d @ %.3f\n",
			req.Locations[i].Road, req.Locations[i].FromStart, loc.Road, loc.FromStart)
	}
}

// post sends a JSON body through the retrying client's shared PostJSON
// path (the same one the fleet's follower→leader proxy uses),
// surfacing any final non-2xx status as an error.
func post(c *retryhttp.Client, url string, in, out interface{}) error {
	status, err := c.PostJSON(context.Background(), url, in, out)
	if err != nil {
		return err
	}
	if status < 200 || status >= 300 {
		return fmt.Errorf("%s: server answered %d past the retry budget", url, status)
	}
	return nil
}
