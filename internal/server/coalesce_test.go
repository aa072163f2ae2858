package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestCoalesceSameDigestBurst is the race-enabled coalescing test: N
// concurrent cold requests for the same digest must produce exactly one
// solve even though they race for a single solve-pool slot. Singleflight
// gives the burst one flight and only the flight leader acquires a slot;
// while the (deliberately slow) solve runs, the rest of the burst joins
// the flight or lands on the freshly filled cache, so nobody is shed
// with 429 and the solver runs once. ci.sh runs this under -race
// explicitly.
func TestCoalesceSameDigestBurst(t *testing.T) {
	srv := New(context.Background(), Config{
		CacheSize: 8,
		MaxSolves: 1,
		SolveWait: 30 * time.Second,
	})
	ctr := &solveCounter{counts: map[string]int{}, delay: 150 * time.Millisecond, tb: t}
	ctr.install(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	spec := testSpecs(t, 1)[0]
	const n = 16
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _ := postJSONB(t, ts, "/solve", spec)
			codes <- code
		}()
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("burst request answered %d; singleflight must absorb same-digest bursts without shedding", code)
		}
	}

	if got := ctr.total(); got != 1 {
		t.Fatalf("solver ran %d times for a %d-request same-digest burst, want exactly 1", got, n)
	}
	snap := srv.Stats()
	if snap.Solves != 1 {
		t.Fatalf("/stats solves = %d, want 1", snap.Solves)
	}
	// Exact accounting for the other n-1 requests: each either joined the
	// leader's flight (coalesced) or arrived after the flight resolved and
	// hit the cache. Nothing may be double-counted or lost.
	if snap.CoalescedRequests+snap.CacheHits != n-1 {
		t.Fatalf("coalesced (%d) + cache hits (%d) = %d, want %d: burst accounting does not reconcile",
			snap.CoalescedRequests, snap.CacheHits, snap.CoalescedRequests+snap.CacheHits, n-1)
	}
	if snap.Rejected != 0 {
		t.Fatalf("%d requests were 429'd during a single-digest burst with MaxSolves=1; coalescing should need only one slot", snap.Rejected)
	}
}
