package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/roadnet"
	"repro/internal/serial"
)

// stubEntry builds a real (exponential-mechanism) cache entry without a
// CG solve, so concurrency tests can pace "solves" deterministically.
func stubEntry(tb testing.TB) *entry {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3})
	part, err := discretize.New(g, 0.3)
	if err != nil {
		tb.Fatal(err)
	}
	pr, err := core.NewProblem(part, core.Config{Epsilon: 5})
	if err != nil {
		tb.Fatal(err)
	}
	m := pr.ExponentialMechanism()
	return &entry{
		prob: pr,
		mech: m,
		etdd: pr.ETDD(m),
		tier: serial.QualityOptimal,
		rng:  rand.New(rand.NewSource(2)),
	}
}

// testSpecs returns n distinct valid specs (distinct epsilons → distinct
// digests) over one shared network.
func testSpecs(tb testing.TB, n int) []*serial.SolveSpec {
	tb.Helper()
	rng := rand.New(rand.NewSource(8))
	net := serial.FromGraph(roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3}))
	specs := make([]*serial.SolveSpec, n)
	for i := range specs {
		specs[i] = &serial.SolveSpec{Network: net, Delta: 0.3, Epsilon: 1 + float64(i)}
	}
	return specs
}

// solveCounter replaces a server's solveFn with a paced stub that counts
// invocations per digest.
type solveCounter struct {
	mu     sync.Mutex
	counts map[string]int
	delay  time.Duration
	tb     testing.TB
}

func (c *solveCounter) install(s *Server) {
	s.solveFn = func(ctx context.Context, spec *serial.SolveSpec, owner bool) (*entry, error) {
		c.mu.Lock()
		c.counts[spec.Digest()]++
		c.mu.Unlock()
		time.Sleep(c.delay)
		return stubEntry(c.tb), nil
	}
}

func (c *solveCounter) count(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[key]
}

func (c *solveCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.counts {
		n += v
	}
	return n
}

// TestConcurrentClients hammers one live server instance with mixes of
// identical and distinct specs and asserts the service's concurrency
// contract: singleflight dedup (exactly one solve per distinct key),
// 429 backpressure past the in-flight solve limit, and a clean drain on
// shutdown. Run under -race this also exercises every lock in the cache,
// flight group and samplers.
func TestConcurrentClients(t *testing.T) {
	t.Run("singleflight dedup", func(t *testing.T) {
		srv := New(context.Background(), Config{CacheSize: 8, MaxSolves: 4})
		ctr := &solveCounter{counts: map[string]int{}, delay: 100 * time.Millisecond, tb: t}
		ctr.install(srv)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		specs := testSpecs(t, 3)
		const perSpec = 8
		codes := make(chan int, len(specs)*perSpec)
		var wg sync.WaitGroup
		for _, spec := range specs {
			for j := 0; j < perSpec; j++ {
				wg.Add(1)
				go func(spec *serial.SolveSpec) {
					defer wg.Done()
					resp, _ := postJSONB(t, ts, "/solve", spec)
					codes <- resp
				}(spec)
			}
		}
		wg.Wait()
		close(codes)
		for code := range codes {
			if code != http.StatusOK {
				t.Fatalf("unexpected status %d with capacity for every key", code)
			}
		}
		for i, spec := range specs {
			if got := ctr.count(spec.Digest()); got != 1 {
				t.Errorf("spec %d solved %d times, want exactly 1", i, got)
			}
		}
		if snap := srv.Stats(); snap.Rejected != 0 {
			t.Errorf("no request should have been rejected, got %d", snap.Rejected)
		}
	})

	t.Run("backpressure past in-flight limit", func(t *testing.T) {
		srv := New(context.Background(), Config{CacheSize: 8, MaxSolves: 1})
		ctr := &solveCounter{counts: map[string]int{}, delay: 300 * time.Millisecond, tb: t}
		ctr.install(srv)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		specs := testSpecs(t, 3)
		// Prime one long solve to occupy the single slot, then race the
		// other specs against it: they must be rejected, not queued.
		first := make(chan int, 1)
		go func() { code, _ := postJSONB(t, ts, "/solve", specs[0]); first <- code }()
		waitFor(t, time.Second, func() bool { return ctr.total() == 1 })

		okCount, busyCount := 0, 0
		var wg sync.WaitGroup
		codes := make(chan int, 2)
		for _, spec := range specs[1:] {
			wg.Add(1)
			go func(spec *serial.SolveSpec) {
				defer wg.Done()
				code, _ := postJSONB(t, ts, "/solve", spec)
				codes <- code
			}(spec)
		}
		wg.Wait()
		close(codes)
		for code := range codes {
			switch code {
			case http.StatusOK:
				okCount++
			case http.StatusTooManyRequests:
				busyCount++
			default:
				t.Fatalf("unexpected status %d", code)
			}
		}
		if busyCount != 2 || okCount != 0 {
			t.Fatalf("want both overflow specs rejected with 429, got %d ok / %d busy", okCount, busyCount)
		}
		if code := <-first; code != http.StatusOK {
			t.Fatalf("slot-holding request failed with %d", code)
		}
		if snap := srv.Stats(); snap.Rejected != 2 {
			t.Errorf("stats should record 2 rejections, got %d", snap.Rejected)
		}

		// Rejection must not poison the key: with the slot free the same
		// specs now solve.
		for i, spec := range specs[1:] {
			if code, _ := postJSONB(t, ts, "/solve", spec); code != http.StatusOK {
				t.Fatalf("retry of rejected spec %d failed with %d", i+1, code)
			}
		}
		if got := ctr.total(); got != 3 {
			t.Errorf("3 distinct specs should yield 3 solves total, got %d", got)
		}
	})

	t.Run("mixed hammer", func(t *testing.T) {
		srv := New(context.Background(), Config{CacheSize: 8, MaxSolves: 4})
		ctr := &solveCounter{counts: map[string]int{}, delay: 20 * time.Millisecond, tb: t}
		ctr.install(srv)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		specs := testSpecs(t, 4)
		const clients = 24
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c)))
				for round := 0; round < 6; round++ {
					spec := specs[rng.Intn(len(specs))]
					code, _ := postJSONB(t, ts, "/solve", spec)
					if code != http.StatusOK && code != http.StatusTooManyRequests {
						t.Errorf("client %d: unexpected status %d", c, code)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		for i, spec := range specs {
			if got := ctr.count(spec.Digest()); got != 1 {
				t.Errorf("spec %d solved %d times under mixed load, want exactly 1", i, got)
			}
		}
	})

	t.Run("clean shutdown drains solves", func(t *testing.T) {
		srv := New(context.Background(), Config{CacheSize: 8, MaxSolves: 2})
		solveStarted := make(chan struct{})
		release := make(chan struct{})
		srv.solveFn = func(ctx context.Context, spec *serial.SolveSpec, owner bool) (*entry, error) {
			close(solveStarted)
			<-release
			return stubEntry(t), nil
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		spec := testSpecs(t, 1)[0]
		reqDone := make(chan int, 1)
		go func() { code, _ := postJSONB(t, ts, "/solve", spec); reqDone <- code }()
		<-solveStarted

		shutdownDone := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shutdownDone <- srv.Shutdown(ctx)
		}()
		select {
		case <-shutdownDone:
			t.Fatal("Shutdown returned while a solve was still in flight")
		case <-time.After(50 * time.Millisecond):
		}

		// New work is refused during the drain.
		if code, _ := postJSONB(t, ts, "/solve", testSpecs(t, 2)[1]); code != http.StatusServiceUnavailable {
			t.Fatalf("request during shutdown got %d, want 503", code)
		}

		close(release)
		if err := <-shutdownDone; err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if code := <-reqDone; code != http.StatusOK {
			t.Fatalf("in-flight request got %d after drain, want 200", code)
		}
	})
}

// postJSONB posts body and returns only the status code and raw body
// (concurrent helpers must not call t.Fatal off the test goroutine).
func postJSONB(t *testing.T, ts *httptest.Server, path string, body interface{}) (int, string) {
	payload, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	return resp.StatusCode, string(buf[:n])
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
