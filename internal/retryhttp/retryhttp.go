// Package retryhttp is a small retrying HTTP client for talking to
// vlpserved. The service sheds load deliberately — 429 with Retry-After
// past the solve-admission gate, 503 while an instance drains — so a
// well-behaved client treats those as "come back shortly", not as
// failures. Do retries transient failures (connection errors, 429, 503
// and other 5xx) with capped exponential backoff and full jitter,
// honouring the server's Retry-After when present, and respects the
// request context throughout, including while sleeping between attempts.
// When a rejected attempt carries the fleet's X-VLP-Leader hint, the
// next attempt is re-aimed at the advertised leader instead of blindly
// re-sending to the same instance.
//
// Requests with bodies are replayed via Request.GetBody, which
// http.NewRequest populates automatically for byte readers; vlpserved's
// POST endpoints are safe to replay because a solve is deterministic in
// its spec digest.
package retryhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// LeaderHeader is the response header a follower stamps with the
// current leaseholder's advertised base URL. A retry that blindly
// re-sends to the same follower buys the same rejection; when a
// retryable response carries this hint, the next attempt is re-aimed
// at the leader instead.
const LeaderHeader = "X-VLP-Leader"

// Client wraps an http.Client with retries. The zero value is usable.
type Client struct {
	// HTTP is the underlying client (default http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds total tries including the first (default 4).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms); subsequent
	// steps double, capped at MaxDelay (default 5s). The actual sleep is
	// drawn uniformly from (0, step] — "full jitter" — so a burst of
	// rejected clients does not re-arrive in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 4
}

// jitter draws a uniform sleep from (0, step].
func (c *Client) jitter(step time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return time.Duration(c.rng.Int63n(int64(step))) + 1
}

// backoff computes the sleep before the next attempt: a full-jitter
// draw over the exponential step, added on top of the server's
// Retry-After hint when the response carries one. The hint is a floor,
// never the whole wait — if every rejected client slept exactly
// Retry-After, the burst that tripped the server's admission gate
// would re-arrive in lockstep and trip it again; jitter on top spreads
// the retry wave while still respecting the server's horizon.
func (c *Client) backoff(resp *http.Response, step time.Duration) time.Duration {
	wait := c.jitter(step)
	if resp == nil {
		return wait
	}
	if d, ok := retryAfter(resp); ok {
		wait += d
	}
	return wait
}

// StatusError records an HTTP status a failed Do saw on its way to
// giving up. Do returns the last response directly when the final
// attempt produced one; when the final attempt died in transport
// instead, the most recent status rides along wrapped in the returned
// error, extractable with errors.As — so callers never lose what the
// server last said.
type StatusError struct {
	Status int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("retryhttp: server answered %d %s", e.Status, http.StatusText(e.Status))
}

// retryable reports whether a response status is worth another attempt:
// explicit backpressure and drain signals (429, 503), plus any other
// 5xx. Every other 4xx is deterministic — the server parsed the request
// and rejected it, so a replay buys the same answer at the cost of the
// full backoff ladder — and is returned to the caller on the first
// attempt. The follower→leader proxy rung depends on this: a leader's
// 422 must fail the proxy immediately, not stack retry latency onto a
// request that will degrade to the fallback rung anyway.
func retryable(status int) bool {
	if status == http.StatusTooManyRequests {
		return true
	}
	if status >= 400 && status < 500 {
		return false
	}
	return status == http.StatusServiceUnavailable || status >= 500
}

// retryAfter parses a Retry-After header (delta-seconds or HTTP-date);
// ok is false when absent or unparseable.
func retryAfter(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if when, err := http.ParseTime(v); err == nil {
		if d := time.Until(when); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// Do sends req, retrying transient failures until an attempt succeeds,
// the attempt budget is spent, or the request context is done. On
// success the caller owns resp.Body as usual; on a final retryable
// status the last response is returned (body open) with a nil error so
// the caller can inspect it. A retryable response bearing the
// X-VLP-Leader header redirects the next attempt to that leader base
// URL (original path and query preserved).
func (c *Client) Do(req *http.Request) (*http.Response, error) {
	if req.Body != nil && req.GetBody == nil {
		return nil, fmt.Errorf("retryhttp: request body is not replayable (nil GetBody)")
	}
	base := c.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxDelay := c.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}

	var lastErr error
	var lastStatus int
	var resp *http.Response
	step := base
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			// Rewind the body for the replay.
			if req.GetBody != nil {
				body, err := req.GetBody()
				if err != nil {
					return nil, fmt.Errorf("retryhttp: rewinding request body: %w", err)
				}
				req.Body = body
			}
			wait := c.backoff(resp, step)
			if resp != nil {
				resp.Body.Close()
			}
			if step *= 2; step > maxDelay {
				step = maxDelay
			}
			if err := sleep(req.Context(), wait); err != nil {
				return nil, err
			}
		}

		var err error
		resp, err = c.httpClient().Do(req)
		if err != nil {
			// Context errors are final; transport errors are retried.
			if ctxErr := req.Context().Err(); ctxErr != nil {
				return nil, ctxErr
			}
			lastErr, resp = err, nil
			continue
		}
		if !retryable(resp.StatusCode) {
			return resp, nil
		}
		lastStatus = resp.StatusCode
		lastErr = &StatusError{Status: resp.StatusCode}
		followLeader(req, resp)
	}
	if resp != nil {
		// Out of attempts on a retryable status: hand the caller the last
		// response rather than discarding what the server said.
		return resp, nil
	}
	if lastStatus != 0 {
		// The final attempt died in transport but an earlier one got an
		// answer; surface both, each reachable via errors.As/Is.
		return nil, fmt.Errorf("retryhttp: %d attempts failed, last error: %w (last status: %w)",
			c.attempts(), lastErr, &StatusError{Status: lastStatus})
	}
	return nil, fmt.Errorf("retryhttp: %d attempts failed, last error: %w", c.attempts(), lastErr)
}

// PostJSON marshals in, POSTs it to url with the client's retry policy,
// and decodes a 2xx JSON response into out (when out is non-nil). The
// final HTTP status is returned in every non-error case, including a
// retryable status that outlived the attempt budget — so a caller can
// distinguish "server still shedding" (429, nil error) from a dead
// target. This is the shared request path of the fleet's
// follower→leader proxy and the serveclient example.
func (c *Client) PostJSON(ctx context.Context, url string, in, out interface{}) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, fmt.Errorf("retryhttp: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		// Drain so the transport can reuse the connection; the caller
		// branches on the status, not the error body.
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("retryhttp: decoding response: %w", err)
		}
	}
	return resp.StatusCode, nil
}

// followLeader re-aims req at the base URL a follower advertised in
// the response's LeaderHeader, keeping the original path and query. A
// missing or malformed hint leaves the request untouched — the retry
// then falls back to the plain same-target backoff, which is always
// safe (the follower proxies writes to the leader anyway; the hint
// just skips a hop). Only scheme and host are taken from the hint so a
// hint can never rewrite which endpoint is being called.
func followLeader(req *http.Request, resp *http.Response) {
	hint := resp.Header.Get(LeaderHeader)
	if hint == "" {
		return
	}
	u, err := url.Parse(hint)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return
	}
	next := *req.URL
	next.Scheme = u.Scheme
	next.Host = u.Host
	req.URL = &next
	// Clear any explicit Host override so the new target derives its
	// Host header from the leader's URL.
	req.Host = ""
}

// sleep waits for d or until ctx is done, whichever is first.
func sleep(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
