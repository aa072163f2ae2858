package retryhttp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetriesBackpressureThenSucceeds(t *testing.T) {
	var hits atomic.Int32
	var bodies atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		if string(b) == "payload" {
			bodies.Add(1)
		}
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := &Client{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	req, err := http.NewRequest(http.MethodPost, ts.URL, bytes.NewReader([]byte("payload")))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after retries", resp.StatusCode)
	}
	if hits.Load() != 3 {
		t.Errorf("server saw %d attempts, want 3 (two 429s then success)", hits.Load())
	}
	// GetBody rewind: every attempt must carry the full payload.
	if bodies.Load() != 3 {
		t.Errorf("server saw the payload on %d/3 attempts", bodies.Load())
	}
}

func TestHonoursRetryAfter(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := &Client{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	// The hinted 1s dominates the millisecond backoff schedule.
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Errorf("retried after %v, want the server's 1s Retry-After honoured", elapsed)
	}
}

func TestExhaustedAttemptsReturnLastResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "still busy", http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := &Client{MaxAttempts: 3, BaseDelay: time.Millisecond}
	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the final 429 surfaced", resp.StatusCode)
	}
}

func TestNoRetryOnClientError(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer ts.Close()

	c := &Client{BaseDelay: time.Millisecond}
	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hits.Load() != 1 {
		t.Errorf("a 400 was retried %d times; client errors are final", hits.Load())
	}
}

func TestContextCancelsBackoffSleep(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := &Client{BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second}
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	start := time.Now()
	_, err := c.Do(req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded from the backoff sleep", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Do slept %v past its context", elapsed)
	}
}

func TestRejectsUnreplayableBody(t *testing.T) {
	c := &Client{}
	req, _ := http.NewRequest(http.MethodPost, "http://example.invalid", nil)
	req.Body = io.NopCloser(strings.NewReader("one-shot"))
	req.GetBody = nil
	if _, err := c.Do(req); err == nil {
		t.Fatal("accepted a request whose body cannot be replayed")
	}
}

// TestPostJSONRetriesThenDecodes drives the shared proxy/serveclient
// request path: a 429 with Retry-After followed by a 2xx JSON body must
// come back decoded, and a replayed attempt must carry the same body.
func TestPostJSONRetriesThenDecodes(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if string(body) != `{"epsilon":5}` {
			t.Errorf("attempt %d body = %q, replay lost the payload", attempts.Load(), body)
		}
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"key":"abc","cached":true}`)
	}))
	defer ts.Close()

	c := &Client{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	var out struct {
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
	}
	status, err := c.PostJSON(context.Background(), ts.URL, map[string]float64{"epsilon": 5}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || out.Key != "abc" || !out.Cached {
		t.Fatalf("status %d, decoded %+v; want 200 with key=abc cached=true", status, out)
	}
	if n := attempts.Load(); n != 2 {
		t.Fatalf("server saw %d attempts, want 2", n)
	}
}

// TestPostJSONSurfacesFinalStatus: a retryable status that outlives the
// attempt budget comes back as (status, nil error) so warmup loops can
// branch on it.
func TestPostJSONSurfacesFinalStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := &Client{MaxAttempts: 2, BaseDelay: time.Millisecond}
	status, err := c.PostJSON(context.Background(), ts.URL, map[string]int{"x": 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 surfaced after exhausted retries", status)
	}
}

// TestBackoffJittersAtopRetryAfter: the server's hint is a floor under
// the jittered backoff, not a replacement for it. A Retry-After that
// merely dominated the jitter would put every rejected client back on
// the wire at the same instant — the wait must be strictly inside
// (hint, hint+step], and must actually vary between draws.
func TestBackoffJittersAtopRetryAfter(t *testing.T) {
	c := &Client{}
	c.rng = rand.New(rand.NewSource(7))
	resp := &http.Response{Header: http.Header{}}
	resp.Header.Set("Retry-After", "2")
	const step = 100 * time.Millisecond
	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		w := c.backoff(resp, step)
		if w <= 2*time.Second || w > 2*time.Second+step {
			t.Fatalf("wait %v outside (2s, 2s+%v]", w, step)
		}
		seen[w] = true
	}
	if len(seen) < 2 {
		t.Fatal("every wait identical: no jitter atop Retry-After, clients re-arrive in lockstep")
	}
}

// TestBackoffWithoutHint: no response (transport error) or no header
// falls back to pure full jitter over the step.
func TestBackoffWithoutHint(t *testing.T) {
	c := &Client{}
	c.rng = rand.New(rand.NewSource(11))
	const step = 50 * time.Millisecond
	for i := 0; i < 32; i++ {
		if w := c.backoff(nil, step); w <= 0 || w > step {
			t.Fatalf("nil-response wait %v outside (0, %v]", w, step)
		}
		bare := &http.Response{Header: http.Header{}}
		if w := c.backoff(bare, step); w <= 0 || w > step {
			t.Fatalf("no-header wait %v outside (0, %v]", w, step)
		}
	}
}

// TestRetryAfterParsing covers both header forms and the garbage cases.
func TestRetryAfterParsing(t *testing.T) {
	mk := func(v string) *http.Response {
		r := &http.Response{Header: http.Header{}}
		if v != "" {
			r.Header.Set("Retry-After", v)
		}
		return r
	}
	if d, ok := retryAfter(mk("3")); !ok || d != 3*time.Second {
		t.Fatalf("delta-seconds: (%v, %v), want (3s, true)", d, ok)
	}
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if d, ok := retryAfter(mk(future)); !ok || d <= 25*time.Second || d > 30*time.Second {
		t.Fatalf("http-date: (%v, %v), want ~30s", d, ok)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d, ok := retryAfter(mk(past)); !ok || d != 0 {
		t.Fatalf("past http-date: (%v, %v), want (0, true)", d, ok)
	}
	if _, ok := retryAfter(mk("")); ok {
		t.Fatal("absent header parsed as a hint")
	}
	if _, ok := retryAfter(mk("soon")); ok {
		t.Fatal("garbage header parsed as a hint")
	}
	if _, ok := retryAfter(mk("-5")); ok {
		t.Fatal("negative delta-seconds parsed as a hint")
	}
}

// TestClientErrorsNeverRetried pins the 4xx contract across the range:
// only 429 is backpressure; every other client error is deterministic
// and gets exactly one attempt.
func TestClientErrorsNeverRetried(t *testing.T) {
	cases := []struct {
		status   int
		wantHits int32
	}{
		{http.StatusBadRequest, 1},
		{http.StatusNotFound, 1},
		{http.StatusUnprocessableEntity, 1},
		{http.StatusTooManyRequests, 3}, // the one retryable 4xx
	}
	for _, tc := range cases {
		var hits atomic.Int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.WriteHeader(tc.status)
		}))
		c := &Client{MaxAttempts: 3, BaseDelay: time.Millisecond}
		req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
		resp, err := c.Do(req)
		ts.Close()
		if err != nil {
			t.Fatalf("status %d: %v", tc.status, err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("status %d: got %d back", tc.status, resp.StatusCode)
		}
		resp.Body.Close()
		if hits.Load() != tc.wantHits {
			t.Errorf("status %d: %d attempts, want %d", tc.status, hits.Load(), tc.wantHits)
		}
	}
}

// TestFollowsLeaderHint: a follower that sheds a write with 503 and an
// X-VLP-Leader hint must see exactly one attempt — the retry belongs
// to the advertised leader, with the original path, query and body
// intact.
func TestFollowsLeaderHint(t *testing.T) {
	var leaderHits, followerHits atomic.Int32
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		leaderHits.Add(1)
		if r.URL.Path != "/solve" || r.URL.RawQuery != "tier=gold" {
			t.Errorf("leader got %q?%q, want /solve?tier=gold preserved across the redirect", r.URL.Path, r.URL.RawQuery)
		}
		if b, _ := io.ReadAll(r.Body); string(b) != "payload" {
			t.Errorf("leader got body %q, replay lost the payload", b)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer leader.Close()
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		followerHits.Add(1)
		w.Header().Set(LeaderHeader, leader.URL)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer follower.Close()

	c := &Client{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	req, err := http.NewRequest(http.MethodPost, follower.URL+"/solve?tier=gold", bytes.NewReader([]byte("payload")))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from the leader", resp.StatusCode)
	}
	if followerHits.Load() != 1 {
		t.Errorf("follower saw %d attempts, want 1 (hint redirects the retry)", followerHits.Load())
	}
	if leaderHits.Load() != 1 {
		t.Errorf("leader saw %d attempts, want 1", leaderHits.Load())
	}
}

// TestMalformedLeaderHintIgnored: garbage in X-VLP-Leader must not
// derail the retry — the client falls back to same-target backoff.
func TestMalformedLeaderHintIgnored(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set(LeaderHeader, "not a url at all\x7f")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := &Client{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from the same-target retry", resp.StatusCode)
	}
	if hits.Load() != 2 {
		t.Errorf("server saw %d attempts, want 2 (retry stayed on target)", hits.Load())
	}
}

// statusThenDieTransport answers the first request with a synthetic
// retryable status and fails every later one in transport — the exact
// shape of a server that sheds load and then drops off the network.
type statusThenDieTransport struct {
	calls atomic.Int32
}

func (tr *statusThenDieTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if tr.calls.Add(1) == 1 {
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Status:     "503 Service Unavailable",
			Header:     make(http.Header),
			Body:       io.NopCloser(strings.NewReader("")),
			Request:    req,
		}, nil
	}
	return nil, errors.New("connection refused")
}

// TestStatusErrorSurfaced: when the final attempt dies in transport but
// an earlier attempt saw a retryable status, the returned error carries
// that status as an errors.As-able StatusError — the caller learns what
// the server last said even though no response survived.
func TestStatusErrorSurfaced(t *testing.T) {
	tr := &statusThenDieTransport{}
	c := &Client{
		HTTP:        &http.Client{Transport: tr},
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
	}
	req, _ := http.NewRequest(http.MethodGet, "http://fleet.invalid/solve", nil)
	if _, err := c.Do(req); err == nil {
		t.Fatal("Do succeeded against a dead transport")
	} else {
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("error %v does not carry a StatusError", err)
		}
		if se.Status != http.StatusServiceUnavailable {
			t.Fatalf("surfaced status %d, want 503", se.Status)
		}
	}
	if tr.calls.Load() != 2 {
		t.Fatalf("transport saw %d calls, want 2", tr.calls.Load())
	}
}
