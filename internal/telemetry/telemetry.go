// Package telemetry is the framework's operational metrics layer: a
// dependency-free registry of atomic counters, gauges and fixed-bucket
// histograms, plus a Prometheus text-exposition writer (expose.go) the
// HTTP layer serves at GET /v1/metrics on both leader and follower
// roles. It is deliberately NOT internal/metrics — that package is the
// paper's ML evaluation (error curves, figure regeneration); this one
// answers the operator's questions (checkin rates, fsync latency,
// replica lag), never the researcher's.
//
// Design constraints, in order:
//
//   - Lock-free hot path. Recording a sample is a handful of atomic adds
//     with zero allocation — cheap enough to sit inside Checkout (a
//     ~µs lock-free path serving a million-device portal) without
//     moving its benchmark. Registration (Counter/Gauge/Histogram) may
//     lock; it happens at task creation, not per request.
//   - Nil-safety in one layer, the handles. A nil *Registry hands out nil
//     handles, and every handle method no-ops on a nil receiver. The
//     packages' bundles of pre-bound handles are never nil themselves: a
//     nil registry yields a bundle of nil handles. So instrumented code
//     never guards a call site — a deployment started with -metrics=false
//     threads nil through and pays one predictable branch per handle.
//   - Stable exposition. Families and series are emitted in sorted
//     order with escaped labels and construction-monotone histogram
//     buckets, so scrapes diff cleanly and internal/tools/promlint can
//     enforce the format in CI.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value pair attached to a metric series. Label names
// share the metric-name charset; values are arbitrary UTF-8 (escaped at
// exposition).
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// DurationBuckets are the default histogram bounds (in seconds) for
// request/IO latencies: 1µs to 5s in a 1–5 ladder, wide enough to span
// a lock-free checkout (~µs) and a spinning-disk fsync (~10ms) on one
// axis.
var DurationBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5,
}

// BatchBuckets are the default histogram bounds for batch sizes:
// powers of two through the hard queue ceiling's practical range.
var BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// metric kinds.
const (
	kindCounter = iota
	kindGauge
	kindHistogram
)

func kindName(k int) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing uint64. The zero value is
// usable standalone; registry-issued counters are shared per (name,
// labels) series.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down (stored as atomic bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge reading (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is ≥ the value, with an implicit +Inf
// overflow bucket. Recording is lock-free (a linear probe over the
// bounds plus two atomic adds); bucket counts are stored per bucket,
// not cumulatively, so concurrent scrapes always expose
// construction-monotone cumulative counts and a _count that equals the
// +Inf bucket by definition.
type Histogram struct {
	bounds  []float64 // sorted ascending; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// newHistogram validates and copies the bounds.
func newHistogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	for i, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("telemetry: histogram %q: bucket bound %v is not finite (+Inf is implicit)", name, b))
		}
		if i > 0 && b <= bs[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q: bucket bounds must be strictly increasing", name))
		}
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample. No-op on a nil receiver; NaN samples are
// dropped (they would poison the sum without landing in any bucket).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// clock is the one clock read for latency: the zero Time, and no read,
// when the timer it serves is disabled.
func clock(on bool) time.Time {
	if !on {
		return time.Time{}
	}
	return time.Now()
}

// Start reads the clock for a later ObserveSince (not on nil).
func (h *Histogram) Start() time.Time { return clock(h != nil) }

// ObserveSince records the seconds elapsed since start. No-op on a nil
// receiver.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Stages is one histogram family split by a label, indexed by value. A
// nil *Stages reads no clock and records nothing.
type Stages struct{ h []*Histogram }

// Stages binds one duration series per stage, labeled stage="<name>" after
// labels. An empty name leaves its index unbound; laps into it record nothing.
func (r *Registry) Stages(name, help string, stages []string, labels ...Label) *Stages {
	return r.Family(name, help, "stage", stages, DurationBuckets, labels...)
}

// Family is Stages for any label and bounds.
func (r *Registry) Family(name, help, label string, values []string, bounds []float64, labels ...Label) *Stages {
	if r == nil {
		return nil
	}
	s := &Stages{h: make([]*Histogram, len(values))}
	for i, v := range values {
		if v != "" {
			s.h[i] = r.Histogram(name, help, bounds, append(labels[:len(labels):len(labels)], L(label, v))...)
		}
	}
	return s
}

// Observe records v under value i (not on nil).
func (s *Stages) Observe(i int, v float64) {
	if s != nil {
		s.h[i].Observe(v)
	}
}

// Start reads the first stage's start (not on nil).
func (s *Stages) Start() time.Time { return clock(s != nil) }

// Lap observes now − since under stage and returns now, the next stage's
// start, so each boundary is read once (not on nil).
func (s *Stages) Lap(stage int, since time.Time) time.Time {
	now := s.Start()
	s.Span(stage, since, now)
	return now
}

// Span observes to − from under stage, for boundaries read already.
func (s *Stages) Span(stage int, from, to time.Time) { s.Observe(stage, to.Sub(from).Seconds()) }

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// family is one named metric with its declared kind and label schema;
// its series are the concrete (label values → handle) instances.
type family struct {
	name       string
	help       string
	kind       int
	labelNames []string
	bounds     []float64 // histograms only

	mu     sync.Mutex
	series map[string]any // seriesKey → *Counter | *Gauge | *Histogram
}

// Registry is a namespace of metric families. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is a valid
// "telemetry disabled" registry: every constructor returns a nil handle
// whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s matches the Prometheus metric/label name
// charset [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally exclude ':',
// checked by the caller).
func validName(s string, allowColon bool) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && allowColon:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// seriesKey builds the map key for one label-value combination. Values
// are length-prefixed so ("a","bc") never collides with ("ab","c").
func seriesKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		fmt.Fprintf(&b, "%d:%s,", len(l.Value), l.Value)
	}
	return b.String()
}

// lookup returns (creating if needed) the family and the series handle
// for the given schema, enforcing that a name is only ever registered
// with one kind, help string, label schema and bucket layout — a
// conflicting re-registration is a programming error and panics with
// the offending name.
func (r *Registry) lookup(name, help string, kind int, bounds []float64, labels []Label) any {
	if !validName(name, true) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Name, false) {
			panic(fmt.Sprintf("telemetry: metric %q: invalid label name %q", name, l.Name))
		}
	}
	labelNames := make([]string, len(labels))
	for i, l := range labels {
		labelNames[i] = l.Name
	}
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			labelNames: labelNames, bounds: bounds,
			series: make(map[string]any),
		}
		r.families[name] = f
	}
	r.mu.Unlock()
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)",
			name, kindName(kind), kindName(f.kind)))
	}
	if len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with %d labels (was %d)",
			name, len(labelNames), len(f.labelNames)))
	}
	for i := range labelNames {
		if f.labelNames[i] != labelNames[i] {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with label %q (was %q)",
				name, labelNames[i], f.labelNames[i]))
		}
	}

	key := seriesKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	var m any
	switch kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	default:
		m = newHistogram(name, bounds)
	}
	f.series[key] = m
	return m
}

// Counter returns the counter series for (name, labels), registering
// the family on first use. The same (name, labels) always yields the
// same handle; re-registering a name with a different kind or label
// schema panics. A nil registry returns a nil (no-op) handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, labels).(*Counter)
}

// Gauge returns the gauge series for (name, labels); semantics as for
// Counter. A nil registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, labels).(*Gauge)
}

// Histogram returns the fixed-bucket histogram series for (name,
// labels) with the given upper bounds (+Inf is implicit; bounds must be
// finite and strictly increasing, and every series of one family shares
// the first registration's bounds). A nil registry returns a nil
// (no-op) handle.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, bounds, labels).(*Histogram)
}

// snapshotFamilies returns the families sorted by name, each with its
// series keys sorted — the stable iteration order the exposition writer
// emits.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
