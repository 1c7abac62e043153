package core

import (
	"errors"
	"slices"
	"time"

	"github.com/crowdml/crowdml/internal/telemetry"
)

// The stages of crowdml_checkin_stage_seconds, indexing the checkin family
// Server.Stages returns, in the order a checkin meets them. decode,
// queue_wait and ack are observed once per applied checkin; apply,
// publish, journal and fsync once per batch that applied any.
const (
	StageDecode    = iota // transport: handler entry → body read and decoded
	StageQueueWait        // core: Checkin entry (auth, validation, leader slot, queue) → its batch holds the apply lock
	StageApply            // core: the batch's Updater steps and counter commits
	StagePublish          // core: the batch's checkout snapshot
	StageJournal          // hub: the batch's journal appends (durable tasks only)
	StageFsync            // hub: the batch's group-commit Sync (SyncBatch only)
	StageAck              // core: end of the batch's OnCommit → that checkin's Checkin returns
)

// The stages of crowdml_checkout_stage_seconds, indexing the checkout
// family, observed once per successful checkout.
const (
	StageAuth   = iota // core: authenticate, AuthFallback included
	StageView          // core: pin the snapshot or derive the delta (plus Checkout's copy)
	StageEncode        // transport: diff and encode into the response buffer
)

// The forms of crowdml_checkout_body_bytes, indexing the family
// Server.CheckoutBodies returns: what one checkout's body carried.
const (
	FormJSON   = iota // the JSON document
	FormFull          // a full frame
	FormEmpty         // an empty delta, or a 204 with no body: the caller was current
	FormSparse        // a sparse delta
	FormXOR           // an XOR delta
)

// The forms of crowdml_checkin_body_bytes, indexing the family
// Server.CheckinBodies returns: the codec a checkin's body arrived in.
const (
	CheckinFormJSON   = iota // the JSON document
	CheckinFormBinary        // a checkin frame
)

// bodyBuckets bound a request or response body: 64 B to 64 MiB
// (wirecodec.MaxPayload).
var bodyBuckets = []float64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}

const (
	checkinStageFamily = "crowdml_checkin_stage_seconds"
	checkinStageHelp   = "Time one checkin spent in each stage, from the handler to its acknowledgment, in seconds."
)

// checkinStages names the checkin family's stages. The commit stages are
// unnamed, hence unbound, until a durable task binds them (CommitStages).
var checkinStages = []string{"decode", "queue_wait", "apply", "publish", "", "", "ack"}

// stalenessBuckets bound τ, the iterations between a checkin's checkout
// and its application: 0, 1, 2, 4 … 1024.
var stalenessBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// ServerMetrics holds the pre-bound telemetry handles for one server's
// device-facing hot paths. Handles are resolved once at construction —
// the per-request cost is atomic adds on already-bound series, never a
// registry lookup. A disabled bundle holds nil handles, and a nil handle
// does nothing, so telemetry off costs one predictable branch per handle.
//
// Metric names (all carry a task label):
//
//	crowdml_checkouts_total                counter    successful checkouts
//	crowdml_checkout_seconds               histogram  checkout latency (auth + view)
//	crowdml_checkout_stage_seconds         histogram  + stage: auth | view | encode
//	crowdml_checkout_body_bytes            histogram  + form: json | full | empty | sparse | xor
//	crowdml_checkins_applied_total         counter    checkins applied to w
//	crowdml_checkin_body_bytes             histogram  + form: json | bin
//	crowdml_checkin_seconds                histogram  checkin latency (Checkin entry → return)
//	crowdml_checkin_stage_seconds          histogram  + stage: decode | queue_wait | apply | publish | journal | fsync | ack
//	crowdml_checkin_staleness_iterations   histogram  τ of each live applied checkin
//	crowdml_checkins_rejected_total        counter    + reason: auth | bad_request | stopped | aborted
//	crowdml_checkin_batch_size             histogram  deltas applied per parameter-lock acquisition
//
// plus the snapshot ring's two families (see RingMetrics).
type ServerMetrics struct {
	checkouts       *telemetry.Counter
	checkoutSeconds *telemetry.Histogram
	checkinsApplied *telemetry.Counter
	checkinSeconds  *telemetry.Histogram
	batchSize       *telemetry.Histogram
	staleness       *telemetry.Histogram

	checkin, checkout, bodies, checkinBodies *telemetry.Stages

	rejectedAuth    *telemetry.Counter
	rejectedBad     *telemetry.Counter
	rejectedStopped *telemetry.Counter
	rejectedAborted *telemetry.Counter

	ring *RingMetrics

	// reg and task rebind the checkin family in CommitStages.
	reg  *telemetry.Registry
	task telemetry.Label
}

// NewServerMetrics binds the core-layer metric series for the given
// task in reg. A nil registry yields a disabled bundle, never nil.
func NewServerMetrics(reg *telemetry.Registry, task string) *ServerMetrics {
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
		staleness: reg.Histogram("crowdml_checkin_staleness_iterations",
			"Server iterations between a checkin's checkout and its application (the paper's tau).",
			stalenessBuckets, t),
		checkin: reg.Stages(checkinStageFamily, checkinStageHelp, checkinStages, t),
		checkout: reg.Stages("crowdml_checkout_stage_seconds",
			"Time one checkout spent in each stage, in seconds.",
			[]string{"auth", "view", "encode"}, t),
		bodies: reg.Family("crowdml_checkout_body_bytes", "Checkout response body size in bytes, by form.", "form",
			[]string{"json", "full", "empty", "sparse", "xor"}, bodyBuckets, t),
		checkinBodies: reg.Family("crowdml_checkin_body_bytes", "Applied checkin request body size in bytes, by codec.", "form",
			[]string{"json", "bin"}, bodyBuckets, t),
		rejectedAuth:    rejected("auth"),
		rejectedBad:     rejected("bad_request"),
		rejectedStopped: rejected("stopped"),
		rejectedAborted: rejected("aborted"),
		ring:            NewRingMetrics(reg, task),
		reg:             reg,
		task:            t,
	}
}

// CommitStages returns a copy of m that also binds the journal stage, and
// the fsync stage when every batch is synced: the hub calls it for durable
// tasks only, so no task advertises a stage it cannot run.
func (m *ServerMetrics) CommitStages(fsync bool) *ServerMetrics {
	names := slices.Clone(checkinStages)
	names[StageJournal] = "journal"
	if fsync {
		names[StageFsync] = "fsync"
	}
	cp := *m
	cp.checkin = m.reg.Stages(checkinStageFamily, checkinStageHelp, names, m.task)
	return &cp
}

// Stages returns the server's checkin and checkout stage families, which
// the transport and the hub lap into next to core. Both are nil, and a
// Start or Lap on them one branch, when the server has no metrics.
func (s *Server) Stages() (checkin, checkout *telemetry.Stages) {
	return s.cfg.Metrics.checkin, s.cfg.Metrics.checkout
}

// CheckoutBodies returns the family, indexed by form, the transport
// observes each checkout's body size in; nil without metrics.
func (s *Server) CheckoutBodies() *telemetry.Stages { return s.cfg.Metrics.bodies }

// CheckinBodies returns the family, indexed by CheckinForm…, the transport
// observes each applied checkin's body size in; nil without metrics.
func (s *Server) CheckinBodies() *telemetry.Stages { return s.cfg.Metrics.checkinBodies }

// RingMetrics holds the pre-bound handles a SnapshotRing counts into —
// the one place a Server's and a shard.Group's snapshots are published
// and their delta checkouts answered. A disabled bundle holds nil
// handles.
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
// nil registry yields a disabled bundle, never nil.
func NewRingMetrics(reg *telemetry.Registry, task string) *RingMetrics {
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

// observeCheckout records one Checkout outcome. A successful one laps its
// view stage from authed, the end of its auth stage, and its total from
// start. Context-cancellation errors are counted nowhere: the device gave
// up, the server did no classifiable work.
func (m *ServerMetrics) observeCheckout(start, authed time.Time, err error) {
	switch {
	case err == nil:
		m.checkouts.Inc()
		m.checkoutSeconds.Observe(m.checkout.Lap(StageView, authed).Sub(start).Seconds())
	case errors.Is(err, ErrAuth):
		m.rejectedAuth.Inc()
	}
}

// observeCheckin records one Checkin outcome. An applied one laps its ack
// stage from acked, the end of its batch's OnCommit, and its total from
// start.
func (m *ServerMetrics) observeCheckin(start, acked time.Time, err error) {
	switch {
	case err == nil:
		m.checkinsApplied.Inc()
		m.checkinSeconds.Observe(m.checkin.Lap(StageAck, acked).Sub(start).Seconds())
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
