package core

import (
	"errors"
	"time"

	"github.com/crowdml/crowdml/internal/telemetry"
)

// ServerMetrics holds the pre-bound telemetry handles for one server's
// device-facing hot paths. Handles are resolved once at construction —
// the per-request cost is atomic adds on already-bound series, never a
// registry lookup — and every field tolerates being nil, so a nil
// *ServerMetrics (telemetry disabled) costs the hot path exactly one
// predictable branch.
//
// Metric names (all carry a task label):
//
//	crowdml_checkouts_total            counter    successful checkouts
//	crowdml_checkout_seconds           histogram  checkout latency
//	crowdml_checkins_applied_total     counter    checkins applied to w
//	crowdml_checkin_seconds            histogram  checkin latency (incl. queueing)
//	crowdml_checkins_rejected_total    counter    + reason: auth | bad_request | stopped | aborted
//	crowdml_checkin_batch_size         histogram  deltas applied per parameter-lock acquisition
//
// plus the snapshot ring's two families (see RingMetrics).
type ServerMetrics struct {
	checkouts       *telemetry.Counter
	checkoutSeconds *telemetry.Histogram
	checkinsApplied *telemetry.Counter
	checkinSeconds  *telemetry.Histogram
	batchSize       *telemetry.Histogram

	rejectedAuth    *telemetry.Counter
	rejectedBad     *telemetry.Counter
	rejectedStopped *telemetry.Counter
	rejectedAborted *telemetry.Counter

	ring *RingMetrics
}

// NewServerMetrics binds the core-layer metric series for the given
// task in reg. A nil registry yields nil (telemetry disabled), which
// every recording site accepts.
func NewServerMetrics(reg *telemetry.Registry, task string) *ServerMetrics {
	if reg == nil {
		return nil
	}
	t := telemetry.L("task", task)
	rejected := func(reason string) *telemetry.Counter {
		return reg.Counter("crowdml_checkins_rejected_total",
			"Checkins rejected before application, by reason.",
			t, telemetry.L("reason", reason))
	}
	return &ServerMetrics{
		checkouts: reg.Counter("crowdml_checkouts_total",
			"Successful parameter checkouts.", t),
		checkoutSeconds: reg.Histogram("crowdml_checkout_seconds",
			"Checkout latency in seconds.", telemetry.DurationBuckets, t),
		checkinsApplied: reg.Counter("crowdml_checkins_applied_total",
			"Checkins whose gradient was applied to the parameters.", t),
		checkinSeconds: reg.Histogram("crowdml_checkin_seconds",
			"Checkin latency in seconds, including queue wait and group commit.",
			telemetry.DurationBuckets, t),
		batchSize: reg.Histogram("crowdml_checkin_batch_size",
			"Checkin deltas applied per parameter-lock acquisition.",
			telemetry.BatchBuckets, t),
		rejectedAuth:    rejected("auth"),
		rejectedBad:     rejected("bad_request"),
		rejectedStopped: rejected("stopped"),
		rejectedAborted: rejected("aborted"),
		ring:            NewRingMetrics(reg, task),
	}
}

// ringMetrics returns the snapshot ring's handles (nil when telemetry is
// off).
func (m *ServerMetrics) ringMetrics() *RingMetrics {
	if m == nil {
		return nil
	}
	return m.ring
}

// RingMetrics holds the pre-bound handles a SnapshotRing counts into —
// the one place a Server's and a shard.Group's snapshots are published
// and their delta checkouts answered. Nil disables it at one branch per
// call.
//
//	crowdml_snapshots_published_total  counter  + source: recycled | allocated
//	crowdml_checkout_delta_total       counter  + outcome: current | delta | full_fallback
//
// After warm-up source="allocated" stands still unless readers keep
// snapshots pinned past their eviction. The second family counts
// checkouts that named a base (?since=N): current is the empty delta,
// full_fallback a base the ring no longer held or never issued.
type RingMetrics struct {
	recycled, allocated *telemetry.Counter
	outcomes            [3]*telemetry.Counter
}

// The outcomes of a checkout that named a base, indexing
// RingMetrics.outcomes.
const (
	deltaCurrent = iota
	deltaServed
	deltaFullFallback
)

// NewRingMetrics binds the ring's series for the given task in reg; a
// nil registry yields nil.
func NewRingMetrics(reg *telemetry.Registry, task string) *RingMetrics {
	if reg == nil {
		return nil
	}
	t := telemetry.L("task", task)
	published := func(source string) *telemetry.Counter {
		return reg.Counter("crowdml_snapshots_published_total",
			"Parameter snapshots published, by where the vector came from.",
			t, telemetry.L("source", source))
	}
	outcome := func(o string) *telemetry.Counter {
		return reg.Counter("crowdml_checkout_delta_total",
			"Checkouts that named a base iteration, by what could be served.",
			t, telemetry.L("outcome", o))
	}
	return &RingMetrics{
		recycled:  published("recycled"),
		allocated: published("allocated"),
		outcomes:  [3]*telemetry.Counter{outcome("current"), outcome("delta"), outcome("full_fallback")},
	}
}

func (m *RingMetrics) published(recycled bool) {
	switch {
	case m == nil:
	case recycled:
		m.recycled.Inc()
	default:
		m.allocated.Inc()
	}
}

func (m *RingMetrics) delta(outcome int) {
	if m != nil {
		m.outcomes[outcome].Inc()
	}
}

// observeCheckout records one Checkout outcome. Context-cancellation
// errors are counted nowhere: the device gave up, the server did no
// classifiable work.
func (m *ServerMetrics) observeCheckout(start time.Time, err error) {
	if m == nil {
		return
	}
	switch {
	case err == nil:
		m.checkouts.Inc()
		m.checkoutSeconds.ObserveSince(start)
	case errors.Is(err, ErrAuth):
		m.rejectedAuth.Inc()
	}
}

// observeCheckin records one Checkin outcome.
func (m *ServerMetrics) observeCheckin(start time.Time, err error) {
	if m == nil {
		return
	}
	switch {
	case err == nil:
		m.checkinsApplied.Inc()
		m.checkinSeconds.ObserveSince(start)
	case errors.Is(err, ErrAuth):
		m.rejectedAuth.Inc()
	case errors.Is(err, ErrBadCheckin):
		m.rejectedBad.Inc()
	case errors.Is(err, ErrStopped):
		m.rejectedStopped.Inc()
	case errors.Is(err, ErrCheckinAborted):
		m.rejectedAborted.Inc()
	}
}

// observeBatch records the size of one applied batch.
func (m *ServerMetrics) observeBatch(n int) {
	if m == nil {
		return
	}
	m.batchSize.Observe(float64(n))
}
