package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/store"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started. Parent 0 means a root; Cycle -1 means the
// span was not caused by a device cycle (checkpointer, replication
// feed, merger: background work).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Cycle  int32  `json:"cycle"`
	Name   string `json:"name"`
	Role   string `json:"role,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps every span in memory until the run ends. Only benchmark
// code records spans: wrappers at the program's public interfaces.
//
// A traced replay has ONE client with one request in flight, so the
// span that caused a server-side span is always "the client's current
// round trip", and the span that caused an updater or journal call is
// "the handler currently serving it". Those two are kept in atomics;
// nothing is added to the requests the program receives.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	cycle     atomic.Int32 // cycle the client is running, -1 outside one
	curClient atomic.Int32 // the client's innermost open span
	curServer atomic.Int32 // the foreground handler span being served

	// counters taken where the work happens
	httpErrors    atomic.Int64
	deltaAttempts atomic.Int64
	deltaHits     atomic.Int64
	checkinReqs   atomic.Int64
	checkinBytes  atomic.Int64
	checkouts     atomic.Int64
	checkoutBytes atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cycle.Store(-1)
	return t
}

func (t *tracer) start(name, role string, parent, cycle int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cycle: cycle, Name: name, Role: role, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) finishAt(id int32, at time.Time) {
	end := int64(at.Sub(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

func (t *tracer) finish(id int32) { t.finishAt(id, time.Now()) }

// foreground starts a server-side span caused by the client's request
// in flight; background starts one nobody is waiting for.
func (t *tracer) foreground(name, role string) int32 {
	return t.start(name, role, t.curServer.Load(), t.cycle.Load())
}

func (t *tracer) background(name, role string) int32 { return t.start(name, role, 0, -1) }

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// traceCtx is the client goroutine's view of the tracer: a stack of its
// open spans. A nil *traceCtx records nothing, so untraced runs share
// the code path at the cost of one branch.
type traceCtx struct {
	t     *tracer
	stack []int32
}

func (tc *traceCtx) begin(name string) int32 {
	if tc == nil {
		return 0
	}
	var parent int32
	if n := len(tc.stack); n > 0 {
		parent = tc.stack[n-1]
	}
	id := tc.t.start(name, "", parent, tc.t.cycle.Load())
	tc.stack = append(tc.stack, id)
	tc.t.curClient.Store(id)
	return id
}

func (tc *traceCtx) endAt(id int32, at time.Time) {
	if tc == nil {
		return
	}
	tc.t.finishAt(id, at)
	for i := len(tc.stack) - 1; i >= 0; i-- {
		if tc.stack[i] == id {
			tc.stack = append(tc.stack[:i], tc.stack[i+1:]...)
			break
		}
	}
	var top int32
	if n := len(tc.stack); n > 0 {
		top = tc.stack[n-1]
	}
	tc.t.curClient.Store(top)
}

func (tc *traceCtx) end(id int32) { tc.endAt(id, time.Now()) }

// beginCycle opens the root span of device cycle n.
func (tc *traceCtx) beginCycle(n int) int32 {
	tc.t.cycle.Store(int32(n))
	return tc.begin("cycle")
}

func (tc *traceCtx) endCycle(id int32) {
	tc.end(id)
	tc.t.cycle.Store(-1)
}

// --- seam: core.Transport (the device's round trip) ---

type tracedTransport struct {
	inner core.Transport
	tc    *traceCtx
}

func (t tracedTransport) Checkout(ctx context.Context, deviceID, token string) (*core.CheckoutResponse, error) {
	sp := t.tc.begin("client.checkout")
	defer t.tc.end(sp)
	return t.inner.Checkout(ctx, deviceID, token)
}

func (t tracedTransport) Checkin(ctx context.Context, deviceID, token string, req *core.CheckinRequest) error {
	sp := t.tc.begin("client.checkin")
	defer t.tc.end(sp)
	return t.inner.Checkin(ctx, deviceID, token, req)
}

// --- seam: http.RoundTripper (wire time and bytes) ---

type tracedRoundTripper struct {
	inner http.RoundTripper
	tc    *traceCtx
}

func (rt tracedRoundTripper) CloseIdleConnections() {
	if c, ok := rt.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func (rt tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	t := rt.tc.t
	isCheckin := strings.HasSuffix(req.URL.Path, "/checkin")
	isCheckout := strings.HasSuffix(req.URL.Path, "/checkout") && req.Method == http.MethodGet
	delta := isCheckout && req.URL.Query().Has("since")
	if isCheckin {
		t.checkinReqs.Add(1)
		t.checkinBytes.Add(req.ContentLength)
	}
	sp := rt.tc.begin("http.roundtrip")
	resp, err := rt.inner.RoundTrip(req)
	if err != nil {
		t.httpErrors.Add(1)
		rt.tc.end(sp)
		return nil, err
	}
	if resp.StatusCode >= 400 {
		t.httpErrors.Add(1)
	}
	if isCheckout {
		t.checkouts.Add(1)
	}
	if delta {
		t.deltaAttempts.Add(1)
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, tc: rt.tc, span: sp, last: time.Now(),
		countBytes: isCheckout, wantKind: delta}
	return resp, nil
}

// tracedBody ends the round-trip span at the last byte the client read,
// so the span covers the wire and not the decoding that follows.
type tracedBody struct {
	io.ReadCloser
	tc         *traceCtx
	span       int32
	last       time.Time
	head       []byte // first bytes of the body: the frame header's kind
	countBytes bool
	wantKind   bool
	closed     bool
}

// frameKindOffset and frameKindDelta mirror docs/WIRE.md: byte 5 of a
// binary frame is its kind, 2 is a delta.
const (
	frameKindOffset = 5
	frameKindDelta  = 2
)

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.last = time.Now()
	if b.countBytes {
		b.tc.t.checkoutBytes.Add(int64(n))
	}
	if b.wantKind && len(b.head) <= frameKindOffset {
		b.head = append(b.head, p[:min(n, frameKindOffset+1-len(b.head))]...)
	}
	return n, err
}

func (b *tracedBody) Close() error {
	if !b.closed {
		b.closed = true
		if b.wantKind && len(b.head) > frameKindOffset && b.head[frameKindOffset] == frameKindDelta {
			b.tc.t.deltaHits.Add(1)
		}
		b.tc.endAt(b.span, b.last)
	}
	return b.ReadCloser.Close()
}

// --- seam: http.Handler (server entry) ---

// classifyRequest names a request's handler span and says whether the
// traced client is waiting for it.
func classifyRequest(r *http.Request) (op string, foreground bool) {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodHead:
		return "probe", false // a follower vouching a credential
	case strings.HasSuffix(p, "/checkout"):
		return "checkout", true
	case strings.HasSuffix(p, "/checkin"):
		return "checkin", true
	case strings.HasSuffix(p, "/register"):
		return "register", true
	case strings.HasSuffix(p, "/journal"):
		return "feed", false
	case strings.HasSuffix(p, "/checkpoint"):
		return "bootstrap", false
	}
	return "other", false
}

func (t *tracer) handler(role string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, fg := classifyRequest(r)
		var id int32
		if fg {
			id = t.start("handler."+op, role, t.curClient.Load(), t.cycle.Load())
			t.curServer.Store(id)
		} else {
			id = t.background("handler."+op, role)
		}
		h.ServeHTTP(w, r)
		t.finish(id)
	})
}

// --- seam: optimizer.Updater ---

type tracedUpdater struct {
	inner optimizer.Updater
	t     *tracer
	role  string
}

// Update on the leader is caused by the checkin being served; on a
// follower it is the replicator applying the feed.
func (u tracedUpdater) Update(w, g *linalg.Matrix, iter int) {
	var id int32
	if u.role == "leader" {
		id = u.t.foreground("updater.update", u.role)
	} else {
		id = u.t.background("updater.update", u.role)
	}
	u.inner.Update(w, g, iter)
	u.t.finish(id)
}

func (u tracedUpdater) Name() string { return u.inner.Name() }

// --- seam: store.Store / store.Journal / store.JournalCursor ---

type tracedStore struct {
	inner store.Store
	t     *tracer
}

func (s tracedStore) Save(ctx context.Context, state *core.ServerState, now time.Time) error {
	id := s.t.background("store.save", "leader")
	defer s.t.finish(id)
	return s.inner.Save(ctx, state, now)
}

func (s tracedStore) Load(ctx context.Context) (*store.Checkpoint, error) {
	id := s.t.background("store.load", "leader")
	defer s.t.finish(id)
	return s.inner.Load(ctx)
}

func (s tracedStore) OpenJournal(ctx context.Context) (store.Journal, error) {
	j, err := s.inner.OpenJournal(ctx)
	if err != nil {
		return nil, err
	}
	return tracedJournal{inner: j, t: s.t}, nil
}

func (s tracedStore) OpenCursor(ctx context.Context, after int) (store.JournalCursor, error) {
	c, err := s.inner.OpenCursor(ctx, after)
	if err != nil {
		return nil, err
	}
	return tracedCursor{inner: c, t: s.t}, nil
}

type tracedJournal struct {
	inner store.Journal
	t     *tracer
}

func (j tracedJournal) Append(ctx context.Context, e store.JournalEntry) error {
	id := j.t.foreground("store.append", "leader")
	defer j.t.finish(id)
	return j.inner.Append(ctx, e)
}

func (j tracedJournal) Sync(ctx context.Context) error {
	id := j.t.foreground("store.sync", "leader")
	defer j.t.finish(id)
	return j.inner.Sync(ctx)
}

func (j tracedJournal) Rotate(ctx context.Context) error {
	id := j.t.background("store.rotate", "leader")
	defer j.t.finish(id)
	return j.inner.Rotate(ctx)
}

func (j tracedJournal) Close() error { return j.inner.Close() }

type tracedCursor struct {
	inner store.JournalCursor
	t     *tracer
}

func (c tracedCursor) Next() (store.JournalEntry, error) {
	id := c.t.background("store.cursor_next", "leader")
	defer c.t.finish(id)
	return c.inner.Next()
}

func (c tracedCursor) Close() error { return c.inner.Close() }

// seams returns the replay seams of w with the tracing wrappers in.
func (t *tracer) seams(w *workload) seams {
	s := w.replaySeams()
	s.handler = t.handler
	s.updater = func(role string, u optimizer.Updater) optimizer.Updater {
		return tracedUpdater{inner: u, t: t, role: role}
	}
	s.store = func(st store.Store) store.Store { return tracedStore{inner: st, t: t} }
	return s
}

// --- span arithmetic ---

// spanStat summarises the spans that share a name and role.
type spanStat struct {
	Name     string  `json:"name"`
	Role     string  `json:"role,omitempty"`
	Count    int     `json:"count"`
	MedianUs float64 `json:"medianUs"`
	// SelfMedianUs is the median of duration minus the part of the
	// interval the span's children cover.
	SelfMedianUs float64 `json:"selfMedianUs"`
	TotalSelfUs  float64 `json:"totalSelfUs"`
	Foreground   bool    `json:"foreground"`
}

// selfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the union of its children's intervals,
// clipped to its own interval. Spans never finished (End 0) count as
// empty.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End <= s.Start {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cursor), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// summarise groups spans by (name, role).
func summarise(spans []span) []spanStat {
	self := selfTimes(spans)
	type key struct{ name, role string }
	type acc struct {
		dur, self []float64
		total     float64
		fg        bool
	}
	groups := map[key]*acc{}
	for i, s := range spans {
		if s.End <= s.Start {
			continue
		}
		k := key{s.Name, s.Role}
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
		}
		a.dur = append(a.dur, float64(s.End-s.Start)/1e3)
		a.self = append(a.self, float64(self[i])/1e3)
		a.total += float64(self[i]) / 1e3
		a.fg = a.fg || s.Cycle >= 0
	}
	out := make([]spanStat, 0, len(groups))
	for k, a := range groups {
		out = append(out, spanStat{
			Name: k.name, Role: k.role, Count: len(a.dur),
			MedianUs: median(a.dur), SelfMedianUs: median(a.self),
			TotalSelfUs: a.total, Foreground: a.fg,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Role < out[j].Role
	})
	return out
}

// findStat returns the summary for (name, role), or a zero stat.
func findStat(stats []spanStat, name, role string) spanStat {
	for _, s := range stats {
		if s.Name == name && s.Role == role {
			return s
		}
	}
	return spanStat{Name: name, Role: role}
}
