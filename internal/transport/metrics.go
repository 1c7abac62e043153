package transport

import (
	"maps"
	"net/http"
	"sync"
	"sync/atomic"

	"github.com/crowdml/crowdml/internal/telemetry"
)

// PathMetrics is the operational telemetry endpoint: Prometheus text
// exposition of every registered counter/gauge/histogram. Served on
// leaders and followers alike once EnableMetrics is called — a
// follower's registry carries the replica-side series, so a fleet
// scrape covers both roles with one config.
const PathMetrics = "/v1/metrics"

// httpMetrics is the transport layer's own instrumentation: per-route
// request counts by status class, plus the feed-entry throughput
// counter. Request counters are cached by (route, class), a comparable
// key built without allocating, in a map that is replaced copy-on-write
// when a new combination appears, so the per-request cost after first
// sight is one lock-free map lookup and one atomic add.
type httpMetrics struct {
	reg      *telemetry.Registry
	mu       sync.Mutex // serializes the copy-on-write of requests
	requests atomic.Pointer[map[routeClass]*telemetry.Counter]
}

type routeClass struct{ route, class string }

// EnableMetrics wires the operational telemetry registry into the
// handler: GET /v1/metrics serves reg's Prometheus exposition, and
// every request through the handler is counted in
// crowdml_http_requests_total{route,code} — route is the matched
// ServeMux pattern (bounded cardinality by construction; path
// parameters never leak into labels) and code the status class
// ("2xx".."5xx"). Call once, before serving traffic, like
// EnableEnrollment. A nil registry still registers the endpoint (an
// empty, valid exposition) but skips request counting.
func (h *Handler) EnableMetrics(reg *telemetry.Registry) {
	h.mux.Handle("GET "+PathMetrics, reg.Handler())
	if reg != nil {
		h.metrics = &httpMetrics{reg: reg}
		h.metrics.requests.Store(&map[routeClass]*telemetry.Counter{})
	}
}

// observe counts one finished request. route is the matched pattern
// ("" for unmatched requests — ServeMux's 404s — which are folded into
// one series so scan traffic cannot mint unbounded label values).
func (m *httpMetrics) observe(route string, status int) {
	if route == "" {
		route = "unmatched"
	}
	var class string
	switch {
	case status < 200:
		class = "1xx"
	case status < 300:
		class = "2xx"
	case status < 400:
		class = "3xx"
	case status < 500:
		class = "4xx"
	default:
		class = "5xx"
	}
	key := routeClass{route, class}
	c := (*m.requests.Load())[key]
	if c == nil {
		m.mu.Lock()
		if c = (*m.requests.Load())[key]; c == nil {
			c = m.reg.Counter("crowdml_http_requests_total",
				"HTTP requests served, by matched route pattern and status class.",
				telemetry.L("route", route), telemetry.L("code", class))
			next := maps.Clone(*m.requests.Load())
			next[key] = c
			m.requests.Store(&next)
		}
		m.mu.Unlock()
	}
	c.Inc()
}

// feedEntriesCounter binds the per-task feed throughput series — one
// registry lookup per feed open, then an atomic add per streamed entry.
// Nil (a no-op handle) when metrics are disabled.
func (h *Handler) feedEntriesCounter(task string) *telemetry.Counter {
	if h.metrics == nil {
		return nil
	}
	return h.metrics.reg.Counter("crowdml_feed_entries_streamed_total",
		"Journal entries streamed to feed consumers (followers and auditors).",
		telemetry.L("task", task))
}

// statusWriter records the response status code as it passes through.
// Unwrap keeps http.NewResponseController working against the wrapped
// writer — the journal feed's per-entry Flush must still reach the
// underlying connection.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// status returns the effective status code (200 when the handler never
// wrote anything — net/http's implicit default).
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}
