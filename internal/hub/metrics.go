package hub

import (
	"context"

	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
)

// WithMetrics attaches an operational telemetry registry to the task.
// CreateTask binds the core hot-path series (unless cfg.Metrics is
// already set, which wins) and, together with WithStore, the durability
// series — journal appends, checkpoint saves, rotations, retention
// prunes, fail-stops, and the live segment-count gauge — plus the
// journal (and, under SyncBatch, fsync) stage of the task's checkin
// stage family. All series carry a task label; see docs/OPERATIONS.md
// "Monitoring" for the full name table. A nil registry is valid and
// disables telemetry.
func WithMetrics(reg *telemetry.Registry) TaskOption {
	return func(o *createOptions) { o.metrics = reg }
}

// durMetrics holds the pre-bound handles for one durable task's
// journal/checkpoint/retention paths. A disabled bundle holds nil
// handles, and a nil handle does nothing.
//
// Metric names (all carry a task label):
//
//	crowdml_journal_appends_total            counter    WAL records appended
//	crowdml_journal_append_failures_total    counter    failed appends (each fail-stops the task)
//	crowdml_journal_rotations_total          counter    segments sealed after checkpoints
//	crowdml_journal_segments                 gauge      live segment-chain length
//	crowdml_retention_pruned_segments_total  counter    sealed segments pruned/archived
//	crowdml_checkpoint_saves_total           counter    successful checkpoint saves
//	crowdml_checkpoint_failures_total        counter    failed checkpoint saves
//	crowdml_failstops_total                  counter    WAL-broken fail-stop latches
type durMetrics struct {
	appends            *telemetry.Counter
	appendFailures     *telemetry.Counter
	rotations          *telemetry.Counter
	segments           *telemetry.Gauge
	prunedSegments     *telemetry.Counter
	checkpointSaves    *telemetry.Counter
	checkpointFailures *telemetry.Counter
	failStops          *telemetry.Counter
}

// newDurMetrics binds the durability series for one task; a nil registry
// yields a disabled bundle.
func newDurMetrics(reg *telemetry.Registry, task string) *durMetrics {
	t := telemetry.L("task", task)
	return &durMetrics{
		appends: reg.Counter("crowdml_journal_appends_total",
			"Write-ahead journal records appended.", t),
		appendFailures: reg.Counter("crowdml_journal_append_failures_total",
			"Failed journal appends; each one fail-stops its task.", t),
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

// updateSegmentGauge refreshes the live segment-chain gauge from the
// store, when the store can count segments (FileStore can, from its open
// journal's index, without listing the directory or copying the chain).
// Called off the hot path — after rotations and retention passes — and
// skipped with telemetry off.
func (m *durMetrics) updateSegmentGauge(ctx context.Context, st store.Store) {
	if m.segments == nil {
		return
	}
	counter, ok := st.(interface {
		SegmentCount(context.Context) (int, error)
	})
	if !ok {
		return
	}
	n, err := counter.SegmentCount(ctx)
	if err != nil {
		return // bookkeeping only; the next rotation retries
	}
	m.segments.Set(float64(n))
}
