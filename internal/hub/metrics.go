package hub

import (
	"context"
	"time"

	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
)

// WithMetrics attaches an operational telemetry registry to the task.
// CreateTask binds the core hot-path series (unless cfg.Metrics is
// already set, which wins) and, together with WithStore, the durability
// series — journal appends, fsync latency, checkpoint saves, rotations,
// retention prunes, fail-stops, and the live segment-count gauge. All
// series carry a task label; see docs/OPERATIONS.md "Monitoring" for
// the full name table. A nil registry is valid and disables telemetry.
func WithMetrics(reg *telemetry.Registry) TaskOption {
	return func(o *createOptions) { o.metrics = reg }
}

// durMetrics holds the pre-bound handles for one durable task's
// journal/checkpoint/retention paths. A nil *durMetrics disables all of
// them (every method and handle is nil-safe).
//
// Metric names (all carry a task label):
//
//	crowdml_journal_appends_total            counter    WAL records appended
//	crowdml_journal_append_failures_total    counter    failed appends (each fail-stops the task)
//	crowdml_journal_sync_seconds             histogram  journal fsync latency
//	crowdml_journal_rotations_total          counter    segments sealed after checkpoints
//	crowdml_journal_segments                 gauge      live segment-chain length
//	crowdml_retention_pruned_segments_total  counter    sealed segments pruned/archived
//	crowdml_checkpoint_saves_total           counter    successful checkpoint saves
//	crowdml_checkpoint_failures_total        counter    failed checkpoint saves
//	crowdml_failstops_total                  counter    WAL-broken fail-stop latches
type durMetrics struct {
	appends            *telemetry.Counter
	appendFailures     *telemetry.Counter
	syncSeconds        *telemetry.Histogram
	rotations          *telemetry.Counter
	segments           *telemetry.Gauge
	prunedSegments     *telemetry.Counter
	checkpointSaves    *telemetry.Counter
	checkpointFailures *telemetry.Counter
	failStops          *telemetry.Counter
}

// newDurMetrics binds the durability series for one task; nil registry
// yields nil.
func newDurMetrics(reg *telemetry.Registry, task string) *durMetrics {
	if reg == nil {
		return nil
	}
	t := telemetry.L("task", task)
	return &durMetrics{
		appends: reg.Counter("crowdml_journal_appends_total",
			"Write-ahead journal records appended.", t),
		appendFailures: reg.Counter("crowdml_journal_append_failures_total",
			"Failed journal appends; each one fail-stops its task.", t),
		syncSeconds: reg.Histogram("crowdml_journal_sync_seconds",
			"Journal fsync latency in seconds (per-entry or group commit).",
			telemetry.DurationBuckets, t),
		rotations: reg.Counter("crowdml_journal_rotations_total",
			"Journal segments sealed after successful checkpoints.", t),
		segments: reg.Gauge("crowdml_journal_segments",
			"Journal segments currently in the store (live chain length).", t),
		prunedSegments: reg.Counter("crowdml_retention_pruned_segments_total",
			"Sealed journal segments pruned or archived by the retention policy.", t),
		checkpointSaves: reg.Counter("crowdml_checkpoint_saves_total",
			"Successful checkpoint saves.", t),
		checkpointFailures: reg.Counter("crowdml_checkpoint_failures_total",
			"Failed checkpoint saves (retried at the next trigger).", t),
		failStops: reg.Counter("crowdml_failstops_total",
			"WAL-broken fail-stop latches (task stopped to protect durability).", t),
	}
}

// observeSync times one journal fsync. Returns a done func so call
// sites stay one-line; both the method and the handle tolerate nil.
func (m *durMetrics) observeSync() func() {
	if m == nil {
		return func() {}
	}
	start := time.Now()
	return func() { m.syncSeconds.ObserveSince(start) }
}

// updateSegmentGauge refreshes the live segment-chain gauge from the
// store, when the store can enumerate segments (FileStore can). Called
// off the hot path — after rotations and retention passes —
// so the Segments listing cost never taxes a checkin.
func (m *durMetrics) updateSegmentGauge(ctx context.Context, st store.Store) {
	if m == nil {
		return
	}
	lister, ok := st.(interface {
		Segments(context.Context) ([]store.SegmentInfo, error)
	})
	if !ok {
		return
	}
	segs, err := lister.Segments(ctx)
	if err != nil {
		return // bookkeeping only; the next rotation retries
	}
	m.segments.Set(float64(len(segs)))
}
