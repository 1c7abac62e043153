// Package transport connects Crowd-ML devices to the server over HTTP,
// reproducing the paper's networked prototype (Section V-A, where the
// original system used Apache/HTTPS; TLS termination is orthogonal and can
// be layered with net/http's TLS support). In process, a *core.Server is
// itself a core.Transport.
package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
)

// HTTP endpoint paths served by Handler and used by HTTPClient. Every
// device-protocol route is task-scoped, under PathTasks
// ("/v1/tasks/{task}/checkout", …).
const (
	PathTasks = "/v1/tasks"

	headerDeviceID       = "X-Crowdml-Device"
	headerToken          = "X-Crowdml-Token"
	headerAcceptEncoding = "Accept-Encoding"
	headerUserAgent      = "User-Agent"
)

// The header values requests share; net/http only reads them. Without
// identityEncoding the Transport adds "gzip" to each request, in a second
// header map, for a coding this protocol never uses; without noUserAgent
// it sends its default User-Agent, which no server route reads (an empty
// one is omitted).
var (
	identityEncoding = []string{"identity"}
	noUserAgent      = []string{""}
	jsonType         = []string{"application/json"}
	binaryType       = []string{ContentTypeBinary}
)

// clientHeader is a new header holding what every request HTTPClient
// sends carries: Accept-Encoding: identity and no User-Agent.
func clientHeader() http.Header {
	return http.Header{headerAcceptEncoding: identityEncoding, headerUserAgent: noUserAgent}
}

// deviceHeader is clientHeader plus a device's credentials.
func deviceHeader(deviceID, token string) http.Header {
	return http.Header{headerAcceptEncoding: identityEncoding, headerUserAgent: noUserAgent, headerDeviceID: {deviceID}, headerToken: {token}}
}

// taskPath builds a task-scoped endpoint path, e.g.
// taskPath("activity", "checkout") → "/v1/tasks/activity/checkout".
func taskPath(taskID, endpoint string) string {
	return PathTasks + "/" + url.PathEscape(taskID) + "/" + endpoint
}

// ErrReadOnlyReplica is returned (as a 409, with the leader's base URL
// in the X-Crowdml-Leader header) when a write — checkin, register —
// hits a follower replica. The replica's state is owned by the
// replication runtime; clients should retry the write against the
// hinted leader.
var ErrReadOnlyReplica = errors.New("transport: task is a read-only replica; write to the leader")

// StatsResponse is the public progress view served at the stats
// endpoints — the statistics the paper's Web portal displays (error rates
// and label distributions, Section V-A), from counters each device
// sanitizes at its own ε. Every field is read lock-free from the server's
// atomic counters, so a crowd polling its portal never slows the hot path.
type StatsResponse struct {
	TaskID        string    `json:"taskId"`
	Iteration     int       `json:"iteration"`
	Stopped       bool      `json:"stopped"`
	ErrorEstimate *float64  `json:"errorEstimate,omitempty"`
	PriorEstimate []float64 `json:"priorEstimate,omitempty"`
	// Shards is the shard count of a sharded logical task (0 for a
	// plain task); its Iteration is then the merged Σ over shards.
	Shards int `json:"shards,omitempty"`
}

// TaskSummary is one row of the GET /v1/tasks listing — the programmatic
// equivalent of the paper's portal task index.
type TaskSummary struct {
	ID            string   `json:"id"`
	Name          string   `json:"name"`
	Algorithm     string   `json:"algorithm,omitempty"`
	Labels        []string `json:"labels,omitempty"`
	Classes       int      `json:"classes"`
	Dim           int      `json:"dim"`
	Iteration     int      `json:"iteration"`
	Stopped       bool     `json:"stopped"`
	ErrorEstimate *float64 `json:"errorEstimate,omitempty"`
	// Shards is the shard count of a sharded logical task; plain tasks
	// omit it. Member tasks never appear in the listing.
	Shards int `json:"shards,omitempty"`
}

// errorResponse is the JSON error body every endpoint emits via
// writeError.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler adapts a hub.Hub to net/http: task-scoped device-protocol
// routes under /v1/tasks/{task}/ and a /v1/tasks listing. All
// endpoints speak JSON; method mismatches get 405 with an Allow header
// (via net/http's method-aware patterns).
type Handler struct {
	hub *hub.Hub
	mux *http.ServeMux
	// metrics is the transport-layer instrumentation installed by
	// EnableMetrics; nil means requests are not counted.
	metrics *httpMetrics
}

var _ http.Handler = (*Handler)(nil)

// NewHandler wraps a hub in an http.Handler.
func NewHandler(h *hub.Hub) *Handler {
	hd := &Handler{hub: h, mux: http.NewServeMux()}
	hd.mux.HandleFunc("GET "+PathTasks, hd.handleListTasks)
	hd.mux.HandleFunc("GET "+PathTasks+"/{task}/checkout", hd.handleCheckout)
	hd.mux.HandleFunc("HEAD "+PathTasks+"/{task}/checkout", hd.handleAuthProbe)
	hd.mux.HandleFunc("POST "+PathTasks+"/{task}/checkin", hd.handleCheckin)
	hd.mux.HandleFunc("GET "+PathTasks+"/{task}/stats", hd.handleStats)
	hd.mux.HandleFunc("GET "+PathTasks+"/{task}/journal", hd.handleJournalFeed)
	hd.mux.HandleFunc("GET "+PathTasks+"/{task}/checkpoint", hd.handleCheckpoint)
	hd.mux.HandleFunc("GET "+PathHealthz, hd.handleHealthz)
	return hd
}

// ServeHTTP implements http.Handler. With EnableMetrics installed it
// counts every request by matched route pattern and status class; the
// ServeMux stamps the matched pattern onto the request in place, so it
// is readable here after dispatch without touching the route table.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.metrics == nil {
		h.mux.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	h.mux.ServeHTTP(sw, r)
	h.metrics.observe(r.Pattern, sw.status())
}

// resolve looks the request's {task} path segment up on the hub. A miss
// writes the response itself and returns ok=false: 409 (the stopped-task
// status) for a task that existed and was closed — so remote devices
// stand down instead of retrying a 404 forever — and 404 for a task that
// never existed.
func (h *Handler) resolve(w http.ResponseWriter, r *http.Request) (hub.Entry, bool) {
	e, err := h.hub.Resolve(r.PathValue("task"))
	if err != nil {
		writeError(w, err)
	}
	return e, err == nil
}

// backend is what serves the entry's device protocol: a sharded logical
// task's router, a task's own server otherwise. Devices cannot tell the
// two apart — same paths, same payloads, same error protocol.
func backend(e hub.Entry) deviceBackend {
	if e.Router != nil {
		return e.Router
	}
	return e.Task.Server()
}

// errorEstimate renders the estimate the way the listing and the stats
// body carry it: absent until there are samples.
func errorEstimate(p hub.Progress) *float64 {
	if !p.HasError {
		return nil
	}
	est := p.ErrorEstimate
	return &est
}

func (h *Handler) handleListTasks(w http.ResponseWriter, r *http.Request) {
	hosted := h.hub.Hosted()
	out := make([]TaskSummary, 0, len(hosted))
	for _, e := range hosted {
		info, p := e.Info(), e.Progress()
		out = append(out, TaskSummary{
			ID:            e.ID(),
			Name:          info.Name,
			Algorithm:     info.Algorithm,
			Labels:        info.Labels,
			Classes:       p.Classes,
			Dim:           p.Dim,
			Iteration:     p.Iteration,
			Stopped:       p.Stopped,
			ErrorEstimate: errorEstimate(p),
			Shards:        p.Shards,
		})
	}
	writeJSON(w, out)
}

// handleCheckout serves the parameter checkout. The backend's read is
// lock-free (immutable snapshot + sharded auth), so this endpoint scales
// with whatever concurrency net/http throws at it. The stages the
// handler times land in the server serving the device (in a sharded
// task, the member owning it), next to that server's own.
func (h *Handler) handleCheckout(w http.ResponseWriter, r *http.Request) {
	if e, ok := h.resolve(w, r); ok {
		id := r.Header.Get(headerDeviceID)
		srv := e.Owner(id).Server()
		_, co := srv.Stages()
		serveCheckout(w, r, backend(e), id, co, srv.CheckoutBodies())
	}
}

// handleAuthProbe answers HTTPClient.AuthProbe, a HEAD on the checkout
// route, by authenticating only: nothing is encoded and no checkout is
// counted. The server owning the device decides (in a sharded task, its
// member), AuthFallback included.
func (h *Handler) handleAuthProbe(w http.ResponseWriter, r *http.Request) {
	if e, ok := h.resolve(w, r); ok {
		id := r.Header.Get(headerDeviceID)
		if err := e.Owner(id).Server().Authenticate(r.Context(), id, r.Header.Get(headerToken)); err != nil {
			writeError(w, err)
		}
	}
}

// handleCheckin is the write twin; a follower replica (in a sharded tier,
// the follower member owning the device) rejects it with a leader hint.
func (h *Handler) handleCheckin(w http.ResponseWriter, r *http.Request) {
	e, ok := h.resolve(w, r)
	if !ok {
		return
	}
	id := r.Header.Get(headerDeviceID)
	if owner := e.Owner(id); !rejectReadOnly(w, owner) {
		srv := owner.Server()
		ci, _ := srv.Stages()
		serveCheckin(w, r, backend(e), id, ci, srv.CheckinBodies())
	}
}

// rejectReadOnly writes the 409 + leader-hint rejection for writes
// targeting a follower replica (in a sharded tier the hint names the
// owning shard's leader); it reports true when the request was rejected
// and the caller must stop.
func rejectReadOnly(w http.ResponseWriter, t *hub.Task) bool {
	if !t.ReadOnly() {
		return false
	}
	w.Header().Set(headerLeader, t.LeaderURL())
	writeError(w, fmt.Errorf("task %q replicates %s: %w", t.ID(), t.LeaderURL(), ErrReadOnlyReplica))
	return true
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	e, ok := h.resolve(w, r)
	if !ok {
		return
	}
	p := e.Progress()
	writeJSON(w, StatsResponse{
		TaskID:        e.ID(),
		Iteration:     p.Iteration,
		Stopped:       p.Stopped,
		ErrorEstimate: errorEstimate(p),
		PriorEstimate: p.PriorEstimate,
		Shards:        p.Shards,
	})
}

// writeJSON emits v with the JSON content type.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already sent; nothing more to do.
		return
	}
}

// writeError is the single error path for every endpoint: it maps the
// framework's sentinel errors onto HTTP statuses (ErrAuth→401,
// ErrBadCheckin→400, ErrStopped→409, ErrTaskNotFound→404, cancelled
// request contexts→499-style 400) and emits a JSON body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, core.ErrAuth):
		status = http.StatusUnauthorized
	case errors.Is(err, core.ErrStopped), errors.Is(err, ErrReadOnlyReplica):
		status = http.StatusConflict
	case errors.Is(err, core.ErrBadCheckin):
		status = http.StatusBadRequest
	case errors.Is(err, hub.ErrTaskNotFound), errors.Is(err, ErrNoFeed):
		status = http.StatusNotFound
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()}) //nolint:errcheck // headers sent
}

// HTTPClient is the device-side HTTP transport. Every device-protocol
// route is task-scoped, so a client serves a task only once WithTask has
// bound it to one; unbound, it can list tasks and probe health.
type HTTPClient struct {
	baseURL string
	taskID  string
	client  *http.Client
	retry   RetryPolicy
	retryOn bool
	// The bound task's two hot routes, built once by WithTask.
	checkoutURL, checkinURL string
	// wire selects the hot-path encoding (WithWire); the default
	// WireJSON preserves the original protocol byte for byte.
	wire WireFormat
	// delta is the base for WireBinaryDelta checkouts: the last snapshot
	// the client was served, nil inside before the first and after a
	// drop. A pointer, so the value copies the With* combinators make
	// share one cache; WithTask and WithWire install a fresh one.
	delta *atomic.Pointer[clientSnapshot]
}

var _ core.Transport = (*HTTPClient)(nil)

// NewHTTPClient returns a transport speaking to the given base URL
// (e.g. "http://learning.example.com:8080"). A nil client uses a default
// with a 30 s timeout; per-request deadlines and cancellation always
// follow the context passed to each call.
func NewHTTPClient(baseURL string, client *http.Client) *HTTPClient {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPClient{baseURL: strings.TrimRight(baseURL, "/"), client: client}
}

// WithTask returns a copy of the client bound to the given task ID, so
// its Checkout/Checkin/Register calls hit the task-scoped
// /v1/tasks/{task}/ routes.
func (c *HTTPClient) WithTask(taskID string) *HTTPClient {
	cp := *c
	cp.taskID = taskID
	cp.checkoutURL = c.baseURL + taskPath(taskID, "checkout")
	cp.checkinURL = c.baseURL + taskPath(taskID, "checkin")
	if cp.delta != nil {
		// A different task is a different model: never apply deltas
		// against the old task's base.
		cp.delta = new(atomic.Pointer[clientSnapshot])
	}
	return &cp
}

// TaskID returns the task the client is bound to ("" = none yet).
func (c *HTTPClient) TaskID() string { return c.taskID }

// endpoint resolves one of the bound task's routes ("checkout" →
// ".../v1/tasks/{task}/checkout").
func (c *HTTPClient) endpoint(name string) (string, error) {
	if c.taskID == "" {
		return "", fmt.Errorf("transport: %s needs a task-bound client (WithTask)", name)
	}
	switch name {
	case "checkout":
		return c.checkoutURL, nil
	case "checkin":
		return c.checkinURL, nil
	}
	return c.baseURL + taskPath(c.taskID, name), nil
}

// Tasks fetches the server's task listing (GET /v1/tasks) — the
// programmatic portal index a device browses before joining a task.
func (c *HTTPClient) Tasks(ctx context.Context) ([]TaskSummary, error) {
	resp, err := c.do(ctx, http.MethodGet, c.baseURL+PathTasks, nil)
	if err != nil {
		return nil, fmt.Errorf("transport: task listing: %w", err)
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return nil, err
	}
	var out []TaskSummary
	if err := decodeJSON(resp.Body, &out); err != nil {
		return nil, fmt.Errorf("transport: decode task listing: %w", err)
	}
	return out, nil
}

// Stats fetches the task's public progress view (GET stats) — the error
// and prior estimates a portal displays.
func (c *HTTPClient) Stats(ctx context.Context) (*StatsResponse, error) {
	u, err := c.endpoint("stats")
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("transport: stats: %w", err)
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return nil, err
	}
	var out StatsResponse
	if err := decodeJSON(resp.Body, &out); err != nil {
		return nil, fmt.Errorf("transport: decode stats: %w", err)
	}
	return &out, nil
}

// errorMessage extracts the message from a JSON error body, falling back
// to the raw bytes for non-JSON responses.
func errorMessage(body []byte) string {
	var er errorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Error != "" {
		return er.Error
	}
	return string(bytes.TrimSpace(body))
}

// wrapSentinel attaches a sentinel to a server-reported message without
// printing the sentinel twice (the server's message usually already ends
// with the sentinel's own text).
func wrapSentinel(msg string, sentinel error) error {
	if s := sentinel.Error(); strings.HasSuffix(msg, s) {
		return fmt.Errorf("%s%w", strings.TrimSuffix(msg, s), sentinel)
	}
	return fmt.Errorf("%s: %w", msg, sentinel)
}

// checkStatus converts HTTP error statuses back into the framework's
// sentinel errors so device code behaves identically across transports.
func checkStatus(resp *http.Response) error {
	switch {
	case resp.StatusCode < 300:
		return nil
	case resp.StatusCode == http.StatusUnauthorized:
		return core.ErrAuth
	case resp.StatusCode == http.StatusConflict:
		// A 409 carrying a leader hint is a follower rejecting a write;
		// surface the hint so callers can redirect (LeaderHint). It still
		// unwraps to core.ErrStopped, so plain device loops stand down.
		if leader := resp.Header.Get(headerLeader); leader != "" {
			return &LeaderHintError{Leader: leader, msg: errorMessage(errorBody(resp))}
		}
		return core.ErrStopped
	case resp.StatusCode == http.StatusNotFound:
		// Only our handlers emit the JSON error envelope; a plain-text
		// 404 is an unregistered route (wrong base URL, enrollment
		// disabled, …), not a task-registry miss.
		body := errorBody(resp)
		var er errorResponse
		if json.Unmarshal(body, &er) == nil && er.Error != "" {
			return wrapSentinel(er.Error, hub.ErrTaskNotFound)
		}
		return fmt.Errorf("transport: server returned 404: %s", bytes.TrimSpace(body))
	case resp.StatusCode == http.StatusBadRequest:
		return wrapSentinel(errorMessage(errorBody(resp)), core.ErrBadCheckin)
	default:
		return fmt.Errorf("transport: server returned %d: %s", resp.StatusCode, errorMessage(errorBody(resp)))
	}
}

// errorBody reads at most 1 KiB of a failed response's body, for its
// error message.
func errorBody(resp *http.Response) []byte {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	return body
}

// LeaderHintError is the client-side image of a 409 rejection that
// carried an X-Crowdml-Leader hint: the write landed on a read-only
// follower (standalone, or the follower member owning the device in a
// sharded tier) and Leader names the base URL to retry against. It
// unwraps to both ErrReadOnlyReplica and core.ErrStopped, so existing
// device loops that stand down on ErrStopped keep doing so while
// hint-aware callers redirect.
type LeaderHintError struct {
	// Leader is the hinted leader base URL.
	Leader string
	msg    string
}

func (e *LeaderHintError) Error() string { return e.msg }

// Unwrap makes errors.Is(err, ErrReadOnlyReplica) and
// errors.Is(err, core.ErrStopped) both true.
func (e *LeaderHintError) Unwrap() []error {
	return []error{ErrReadOnlyReplica, core.ErrStopped}
}

// LeaderHint extracts the leader base URL from an error returned by an
// HTTPClient write, when the server supplied one.
func LeaderHint(err error) (string, bool) {
	var lh *LeaderHintError
	if errors.As(err, &lh) && lh.Leader != "" {
		return lh.Leader, true
	}
	return "", false
}
