package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"
)

// RetryPolicy configures transparent retries for the client's idempotent
// requests (checkout, stats, task listing, checkpoint fetch, journal feed
// open, auth probe). Only transport-level failures and transient server
// statuses (5xx, 429) are retried — application errors (401, 404, 409,
// 400) surface immediately, and non-idempotent requests (checkin,
// register) are never retried at all: a request that may have been
// applied must not be silently replayed. Delays grow exponentially from
// BaseDelay, are capped at MaxDelay, and carry full jitter (each wait is
// uniform in [d/2, d]) so a crowd of devices recovering from the same
// outage does not reconverge in lockstep. The retry budget always
// respects the request context: cancellation or deadline expiry ends the
// attempts immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values < 1 mean the default of 4.
	MaxAttempts int
	// BaseDelay is the pre-jitter delay before the first retry; it
	// doubles per attempt. Values <= 0 mean the default of 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter delay. Values <= 0 mean the default
	// of 2s.
	MaxDelay time.Duration
}

// withDefaults fills zero fields with the documented defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// Delay returns the jittered wait before the given retry (attempt ≥ 1):
// exponential growth from BaseDelay capped at MaxDelay, then full jitter
// into [d/2, d]. The client's retries and the follower loop's waits
// (replica.Replicator) both use it, on a policy with its defaults applied.
func (p RetryPolicy) Delay(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	half := d / 2
	return half + rand.N(half+1)
}

// WithRetry returns a copy of the client that transparently retries its
// idempotent requests per the policy. The zero policy selects the
// documented defaults.
func (c *HTTPClient) WithRetry(p RetryPolicy) *HTTPClient {
	cp := *c
	cp.retry = p.withDefaults()
	cp.retryOn = true
	return &cp
}

// RetryPolicy returns the client's effective policy: the one given to
// WithRetry with its defaults applied, or the defaults for a client built
// without it.
func (c *HTTPClient) RetryPolicy() RetryPolicy { return c.retry.withDefaults() }

// retryableStatus reports whether an HTTP status is worth retrying: the
// server answered, but with a condition expected to clear (backend
// overload, a restarting leader, explicit throttling).
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// do executes an idempotent, bodiless request (GET, or HEAD for the auth
// probe) against url with the given extra headers, retrying per the
// client's policy. A fresh request is built per attempt. The caller owns
// the returned response body.
func (c *HTTPClient) do(ctx context.Context, method, url string, header http.Header) (*http.Response, error) {
	attempts := 1
	if c.retryOn {
		attempts = c.retry.MaxAttempts
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			t := time.NewTimer(c.retry.Delay(attempt - 1))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("%w (retry budget interrupted after: %v)", ctx.Err(), lastErr)
			case <-t.C:
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, url, nil)
		if err != nil {
			return nil, err
		}
		for k, vs := range header {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		req.Header[headerAcceptEncoding] = identityEncoding
		resp, err := c.client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation, not a transient network fault: stop burning
				// the budget on a context that can never succeed.
				return nil, err
			}
			lastErr = err
			continue
		}
		if c.retryOn && retryableStatus(resp.StatusCode) && attempt < attempts {
			lastErr = fmt.Errorf("server returned %d: %s",
				resp.StatusCode, errorMessage(drainBody(resp)))
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("transport: %s failed after %d attempt(s): %w", method, attempts, lastErr)
}

// drainBody reads (capped) and closes a response body being discarded by
// a retry, returning the bytes for the error message. Draining lets the
// transport reuse the connection.
func drainBody(resp *http.Response) []byte {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return body
}

// decodeJSON decodes one JSON value from r through a pooled read
// buffer, avoiding the per-call json.Decoder allocation of the
// streaming form.
func decodeJSON(r io.Reader, v any) error {
	buf, err := readAllPooled(r)
	defer buf.put()
	if err != nil {
		return err
	}
	return json.Unmarshal(buf.b, v)
}
