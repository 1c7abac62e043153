package hub

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/store"
)

// ErrSkipTask is returned by a Restore configuration callback to leave a
// persisted task unopened (its state stays in the store untouched).
var ErrSkipTask = errors.New("crowdml: skip restoring this task")

// CheckpointPolicy controls when a task's asynchronous checkpointer
// snapshots the server state. The journal makes every acknowledged
// checkin durable on its own, so checkpoints only bound replay time —
// both triggers coalesce: however many checkins arrive between
// snapshots, each trigger writes one.
type CheckpointPolicy struct {
	// Every checkpoints on a timer (when any checkin arrived since the
	// last snapshot). 0 disables the timer.
	Every time.Duration
	// AfterN checkpoints once this many checkins accumulated since the
	// last snapshot. 0 disables the count trigger.
	AfterN int
}

// withDefaults returns the policy CreateTask actually runs: a task with
// a store but no explicit policy checkpoints once a minute.
func (p CheckpointPolicy) withDefaults() CheckpointPolicy {
	if p.Every <= 0 && p.AfterN <= 0 {
		p.Every = time.Minute
	}
	return p
}

// SyncPolicy selects how hard the write-ahead journal pushes each entry
// toward stable storage — the durability/throughput trade for a durable
// task.
type SyncPolicy int

const (
	// SyncNone (the default) flushes each entry to the OS without
	// fsyncing: every acknowledged checkin survives a crash of the
	// server process, but a kernel panic or power loss may lose the
	// newest entries. This is the cheapest policy and the pre-SyncPolicy
	// behavior.
	SyncNone SyncPolicy = iota
	// SyncBatch is group-commit fsync: the batch leader fsyncs the
	// journal ONCE per applied batch, after the batch's entries are
	// appended and before any of its Checkin calls return. Acknowledged
	// checkins then survive power loss, at a cost amortized over the
	// whole batch — under load, a fraction of a per-entry fsync each.
	SyncBatch
)

// WithSyncPolicy sets a durable task's journal fsync policy; it only
// has an effect together with WithStore. The zero policy is SyncNone.
func WithSyncPolicy(p SyncPolicy) TaskOption {
	return func(o *createOptions) { o.sync = p }
}

// retention modes (see RetentionPolicy).
const (
	retentionKeep = iota
	retentionPrune
	retentionArchive
)

// RetentionPolicy decides what happens to sealed journal segments a
// checkpoint fully covers. The checkpointer applies the policy after
// each successful Save+Rotate cycle — and ONLY then: a failed rotation
// skips retention entirely (the covered entries still sit in the live
// segment), the live segment is never touched, and a segment whose last
// iteration exceeds the new checkpoint's iteration is never touched
// either. Retention is disk bookkeeping, not durability: every pruned
// entry is covered by a durable checkpoint, so no policy can ever cost
// an acknowledged checkin.
type RetentionPolicy struct {
	mode int
	dir  string
}

// KeepAll — the default — retains every sealed segment forever as the
// audit trail (the pre-retention behavior); disk use grows with
// lifetime checkin volume.
var KeepAll = RetentionPolicy{}

// PruneCovered deletes sealed segments once the latest checkpoint
// covers their last entry, bounding disk use by checkpoint cadence at
// the price of the audit trail.
var PruneCovered = RetentionPolicy{mode: retentionPrune}

// ArchiveCovered moves covered sealed segments into dir instead of
// deleting them: the store directory stays bounded like PruneCovered,
// while the audit trail lives on in dir as the same frame segments
// (a store in memory archives into its own memory; crowdml-server
// -dump-journal dir prints an archive on disk as JSON lines).
func ArchiveCovered(dir string) RetentionPolicy {
	return RetentionPolicy{mode: retentionArchive, dir: dir}
}

// WithRetention sets a durable task's segment retention policy; it only
// has an effect together with WithStore, and requires a store
// implementing store.SegmentRetainer (FileStore does) for any
// policy other than KeepAll. The zero policy is KeepAll.
func WithRetention(p RetentionPolicy) TaskOption {
	return func(o *createOptions) { o.retention = p }
}

// WithStore attaches a durability store to the task. CreateTask then
// restores any persisted state (latest checkpoint + deterministic replay
// of the live journal segments) before the task is registered, journals
// every applied checkin write-ahead of its acknowledgment, and runs an
// asynchronous checkpointer per WithCheckpointPolicy — which also
// rotates the journal onto a fresh segment after each successful
// snapshot, keeping restart time bounded by checkpoint cadence while
// sealed segments accumulate as the audit trail. Journal fsync behavior
// is WithSyncPolicy's. Hub.Close (or CloseTask) flushes a final
// snapshot and closes the journal.
func WithStore(st store.Store) TaskOption {
	return func(o *createOptions) { o.store = st }
}

// WithCheckpointPolicy sets the task's checkpoint cadence; it only has
// an effect together with WithStore. The zero policy means the default
// (checkpoint once a minute).
func WithCheckpointPolicy(p CheckpointPolicy) TaskOption {
	return func(o *createOptions) { o.policy = p }
}

// durability is the per-task persistence engine: the write-ahead journal
// commit plus the coalescing asynchronous checkpointer. The commit runs
// on the batch leader OUTSIDE the server's parameter lock; the
// checkpointer runs on its own goroutine and never blocks checkins at
// all.
type durability struct {
	st        store.Store
	journal   store.Journal
	syncBatch bool         // SyncBatch: one journal Sync per commit
	srv       *core.Server // set once the server exists, before any traffic

	policy    CheckpointPolicy
	retention RetentionPolicy
	m         *durMetrics   // nil disables durability telemetry
	dirty     atomic.Int64  // checkins journaled since the last snapshot
	kick      chan struct{} // AfterN trigger (capacity 1, coalescing)
	stopCh    chan struct{}
	doneCh    chan struct{}

	// export is the memory every snapshot is exported into (Store.Save
	// retains nothing of it): the checkpointer goroutine's while it runs,
	// close's once it has exited.
	export core.StateBuffer

	// failed latches on the first journal append or sync failure: the WAL
	// can no longer honor "every acknowledged checkin is durable", so the
	// task fail-stops (see commit) rather than silently widening the loss —
	// and no later append may succeed, which would leave a hole that
	// breaks replay contiguity on recovery.
	failed atomic.Bool

	// stopOnce guards stopCh against double close across retried closes.
	stopOnce sync.Once

	// closeMu fences the journal against close: commit appends and syncs
	// under the read lock, and close() takes the write lock to set closing
	// — which both drains every in-flight commit and makes later commits
	// skip journaling. An append racing journal.Close would otherwise latch
	// a bogus fail-stop from the spurious error. Skipping loses nothing:
	// close() halts the server BEFORE its state export, so any checkin
	// whose commit got this far is covered by the final checkpoint.
	closeMu sync.RWMutex
	closing bool

	// closeSlot admits one close attempt at a time; closed (fully flushed,
	// latched only on success) is read and written only by its holder.
	closeSlot chan struct{}
	closed    bool

	mu       sync.Mutex
	asyncErr []error // failures on the async paths, surfaced by close
}

func newDurability(st store.Store, journal store.Journal, policy CheckpointPolicy, retention RetentionPolicy, sp SyncPolicy) *durability {
	return &durability{
		st: st, journal: journal, syncBatch: sp == SyncBatch,
		policy:    policy.withDefaults(),
		retention: retention,
		kick:      make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		closeSlot: make(chan struct{}, 1),
	}
}

// commit is the core.ServerConfig.OnCommit hook CreateTask installs. Per
// the core contract it runs after the batch is applied in memory but
// before any of its Checkin calls return, so each record is in the
// journal — and, under SyncBatch, on stable storage after ONE Sync for
// the whole batch (group commit) — before its device sees an
// acknowledgment. The first append or sync failure fail-stops the task:
// the WAL can no longer keep its guarantee, so the task must not keep
// widening the at-risk window, and no later append may succeed behind
// the failure (a hole would break replay contiguity). Every record still
// counts toward the next checkpoint, which then covers the unjournaled
// ones.
func (d *durability) commit(records []core.ReplayRecord) {
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.failed.Load() || d.closing {
		return
	}
	// The checkins are already applied to the model; their records must
	// be written whatever became of the devices' requests.
	ctx := context.Background()
	now := time.Now().UnixMilli()
	var err error
	for _, r := range records {
		err = d.journal.Append(ctx, store.JournalEntry{
			AtUnixMillis: now,
			DeviceID:     r.DeviceID,
			Iteration:    r.Iteration,
			NumSamples:   r.Req.NumSamples,
			ErrCount:     r.Req.ErrCount,
			GradNorm1:    linalg.Norm1(r.Req.Grad),
			Grad:         r.Req.Grad,
			LabelCounts:  r.Req.LabelCounts,
			Version:      r.Req.Version,
		})
		if err != nil {
			if d.m != nil {
				d.m.appendFailures.Inc()
			}
			err = fmt.Errorf("journal append at iteration %d failed; task stopped: %w", r.Iteration, err)
			break
		}
		if d.m != nil {
			d.m.appends.Inc()
		}
	}
	if err == nil && d.syncBatch {
		done := d.m.observeSync()
		err = d.journal.Sync(ctx)
		done()
		if err != nil {
			err = fmt.Errorf("journal group-commit sync failed; task stopped: %w", err)
		}
	}
	if err != nil {
		d.failStop(err)
	}
	n := d.dirty.Add(int64(len(records)))
	if d.policy.AfterN > 0 && n >= int64(d.policy.AfterN) {
		select {
		case d.kick <- struct{}{}:
		default: // a kick is already pending; it will see these checkins too
		}
	}
}

func (d *durability) recordErr(err error) {
	d.mu.Lock()
	d.asyncErr = append(d.asyncErr, err)
	d.mu.Unlock()
}

// failStop latches the WAL-broken state: the journal can no longer
// honor "every acknowledged checkin is durable", so the task stops
// accepting checkins (keeping the at-risk window as narrow as one
// batch), no later append may succeed behind the failure (a hole would
// break replay contiguity), and the error surfaces at Close. The server
// is halted, not stopped: a transient disk error is not learning state,
// and no checkpoint may persist it.
func (d *durability) failStop(err error) {
	d.failed.Store(true)
	d.srv.Halt()
	if d.m != nil {
		d.m.failStops.Inc()
	}
	d.recordErr(err)
}

// run is the checkpointer goroutine: it waits for a trigger, then writes
// one snapshot covering every checkin journaled so far. Started before
// the task is registered; stopped by close.
func (d *durability) run() {
	defer close(d.doneCh)
	var tick <-chan time.Time
	if d.policy.Every > 0 {
		ticker := time.NewTicker(d.policy.Every)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-d.stopCh:
			return
		case <-d.kick:
			// Checkins journaled while the previous save ran re-armed the
			// kick against the count that save then cleared; only a count
			// still at the threshold is a trigger.
			if d.dirty.Load() < int64(d.policy.AfterN) {
				continue
			}
		case <-tick:
		}
		if d.dirty.Load() == 0 {
			continue
		}
		d.save(context.Background())
	}
}

// save is the checkpointer's cycle: one checkpoint, then the journal
// rotated onto a fresh segment and retention applied behind it. Called on
// the checkpointer goroutine only.
func (d *durability) save(ctx context.Context) {
	n := d.dirty.Load()
	state, err := d.checkpoint(ctx)
	if err != nil {
		d.recordErr(fmt.Errorf("checkpoint: %w", err))
		return
	}
	// Checkins that raced in between the Load and the export are covered
	// by the snapshot too; counting them as still-dirty only means one
	// redundant save later, never a lost one.
	d.dirty.Add(-n)
	if d.rotate(ctx) {
		d.retain(ctx, state.Iteration)
	}
}

// checkpoint writes one snapshot and counts the outcome: the only
// Store.Save call, for the periodic checkpoints and the final one alike.
// The export takes the apply lock for the duration of one state copy into
// the warm d.export, so checkpointing throttles the write path only for
// that copy, never for the Store.Save I/O itself.
func (d *durability) checkpoint(ctx context.Context) (*core.ServerState, error) {
	state := d.srv.ExportStateInto(&d.export)
	err := d.st.Save(ctx, state, time.Now())
	switch {
	case d.m == nil:
	case err != nil:
		d.m.checkpointFailures.Inc()
	default:
		d.m.checkpointSaves.Inc()
	}
	return state, err
}

// rotate seals the live journal segment behind a successful checkpoint,
// reporting whether the seal actually happened (retention runs only
// then). Ordering makes the crash windows safe in both directions:
// entries appended between the state export and the rotation land in
// the old segment with iterations ABOVE the checkpoint's, and restore's
// cursor walks back past the newest segment whenever its first entry is
// not covered — so a crash between checkpoint success and the seal (or
// a failed rotation, which is recorded and retried at the next
// checkpoint) costs only bounded extra reading, never correctness.
// Skipped once the task is closing (the journal is being fenced; the
// final checkpoint covers everything) or fail-stopped.
func (d *durability) rotate(ctx context.Context) bool {
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.failed.Load() || d.closing {
		return false
	}
	if err := d.journal.Rotate(ctx); err != nil {
		d.recordErr(fmt.Errorf("rotate journal: %w", err))
		return false
	}
	if d.m != nil {
		d.m.rotations.Inc()
		d.m.updateSegmentGauge(ctx, d.st)
	}
	return true
}

// retain applies the task's RetentionPolicy after a successful
// checkpoint-and-rotate cycle: sealed segments whose last iteration the
// fresh checkpoint (at coveredIteration) covers are pruned or archived
// by the store. Never reached on a failed rotation — the covered
// entries would still sit in the live segment, which retention must not
// touch — and the store itself re-checks coverage per segment, so
// entries that raced past the checkpoint's iteration are always kept.
// A retention failure is bookkeeping, not data loss: it is recorded for
// Close and retried after the next checkpoint.
func (d *durability) retain(ctx context.Context, coveredIteration int) {
	if d.retention.mode == retentionKeep {
		return
	}
	retainer, ok := d.st.(store.SegmentRetainer)
	if !ok {
		return // CreateTask validated this; a wrapper store may still hide it
	}
	pruned, err := retainer.PruneSegments(ctx, coveredIteration, d.retention.dir)
	if err != nil {
		d.recordErr(fmt.Errorf("segment retention: %w", err))
	}
	// An interrupted prune still removed the segments it reports; count
	// them and refresh the gauge regardless of the error.
	if d.m != nil {
		d.m.prunedSegments.Add(uint64(len(pruned)))
		d.m.updateSegmentGauge(ctx, d.st)
	}
}

// close stops the checkpointer, halts the server, writes the final
// snapshot, closes the journal, and reports every error the async paths
// accumulated. Halting the server before the final export closes the
// shutdown loss window: a checkin not yet applied when the halt latches
// is rejected (ErrStopped, never acknowledged), so nothing acknowledged
// can postdate the final checkpoint. The halt is not learning state, so
// the snapshot carries only the learning stop — a restored task resumes
// accepting checkins unless the learning rule (or CloseTask) stopped it.
//
// One attempt runs at a time; a concurrent closer waits for it (or for
// its own ctx) and then finds the task flushed, or retries: it must not
// report success (and, in CloseTask's case, deregister the task) while
// the real flush is still running and may yet fail. closed latches only
// when a flush SUCCEEDS: a close that failed on a wedged or full store
// returns its error and may be retried (Hub.Close and a flush-failed
// CloseTask leave the task reachable for exactly that). A task without a
// store has a nil durability, whose close is a no-op.
func (d *durability) close(ctx context.Context) error {
	if d == nil {
		return nil
	}
	select {
	case d.closeSlot <- struct{}{}:
	case <-ctx.Done():
		return fmt.Errorf("waiting on a concurrent durability close: %w", ctx.Err())
	}
	defer func() { <-d.closeSlot }()
	if d.closed {
		return nil
	}
	err := d.flush(ctx)
	d.closed = err == nil
	d.mu.Lock()
	defer d.mu.Unlock()
	err = errors.Join(append([]error{err}, d.asyncErr...)...)
	d.asyncErr = nil
	return err
}

// flush is one close attempt.
func (d *durability) flush(ctx context.Context) error {
	d.stopOnce.Do(func() { close(d.stopCh) })
	select {
	case <-d.doneCh:
	case <-ctx.Done():
		// The checkpointer is wedged in a hung Store.Save; hand the caller
		// its deadline back for a retry once the store recovers. (The
		// checkpointer goroutine itself exits when the wedged Save returns
		// and does not restart — the journal still records every checkin,
		// so nothing is lost, but the only supported continuation is to
		// close again, not to keep serving.)
		return fmt.Errorf("checkpointer did not stop before the deadline: %w", ctx.Err())
	}
	d.srv.Halt()
	// The export takes the apply lock: everything applied so far is in it.
	if _, err := d.checkpoint(ctx); err != nil {
		// The journal stays open and commits keep appending: every
		// acknowledged checkin remains durable in the WAL even though the
		// snapshot failed, and a retried close re-exports and re-saves.
		return fmt.Errorf("final checkpoint: %w", err)
	}
	// Only now fence the journal — the fence drains in-flight commits and
	// makes later ones skip journaling. Any checkin those late commits
	// carry was applied before the Halt above, so the just-written
	// checkpoint already covers it durably; fencing earlier would instead
	// leave such checkins nowhere if the Save had failed.
	d.closeMu.Lock()
	d.closing = true
	d.closeMu.Unlock()
	if err := d.journal.Close(); err != nil {
		return fmt.Errorf("close journal: %w", err)
	}
	return nil
}

// restoreInto reconstructs a freshly built server from its store: load
// the latest checkpoint (if any), then deterministically replay the
// journal tail, landing on the exact pre-crash iteration, parameters and
// totals. The tail is STREAMED — Store.OpenCursor picks the trailing
// segments the checkpoint does not cover and Server.Replay pulls one
// entry at a time — so both restart time and restore memory are bounded
// by checkpoint cadence (the checkpointer rotates after every
// successful snapshot), not by how many checkins the task has absorbed
// in its life. A torn final journal record (ErrJournalTruncated from
// the cursor) is tolerated as a clean end of stream — it was never
// durable, so its checkin was never acknowledged.
func restoreInto(ctx context.Context, srv *core.Server, st store.Store, taskID string) error {
	covered := 0 // the checkpoint's iteration: entries at or below it are covered
	cp, err := st.Load(ctx)
	switch {
	case errors.Is(err, store.ErrNoCheckpoint):
	case err != nil:
		return fmt.Errorf("task %q: load checkpoint: %w", taskID, err)
	default:
		if err := srv.ImportState(cp.State); err != nil {
			return fmt.Errorf("task %q: restore checkpoint: %w", taskID, err)
		}
		covered = cp.State.Iteration
	}
	cur, err := st.OpenCursor(ctx, covered)
	if err != nil {
		return fmt.Errorf("task %q: open journal cursor: %w", taskID, err)
	}
	defer cur.Close()
	if _, err := srv.Replay(func() (core.ReplayRecord, error) {
		e, err := cur.Next()
		if errors.Is(err, io.EOF) || errors.Is(err, store.ErrJournalTruncated) {
			return core.ReplayRecord{}, io.EOF
		}
		if err != nil {
			return core.ReplayRecord{}, err
		}
		// Replay consumes the record before pulling the next one —
		// O(one entry) resident.
		return e.ReplayRecord(), nil
	}); err != nil {
		return fmt.Errorf("task %q: replay journal: %w", taskID, err)
	}
	return nil
}

// TaskConfig supplies the runtime configuration for a persisted task
// being restored — the parts a Store cannot hold (the model, the
// updater, portal metadata). Return ErrSkipTask to leave the task's
// state in the store without hosting it.
type TaskConfig func(taskID string) (core.ServerConfig, []TaskOption, error)

// Restore reconstructs every task persisted under root: List the task
// IDs, obtain each task's runtime configuration from configure, and
// CreateTask with the task's store attached — which loads the latest
// checkpoint, replays the journal tail, and resumes journaling and
// checkpointing. It returns the restored tasks. On error, tasks already
// restored stay hosted (the caller owns the hub and can Close it).
func (h *Hub) Restore(ctx context.Context, root store.Root, configure TaskConfig) ([]*Task, error) {
	ids, err := root.List(ctx)
	if err != nil {
		return nil, fmt.Errorf("crowdml: list persisted tasks: %w", err)
	}
	var out []*Task
	for _, id := range ids {
		if !ValidTaskID(id) {
			// Never a crowdml store: CreateTask enforces the ID charset, so
			// the hub could not have written it. Skipping keeps a stray
			// directory under a file root (lost+found, an operator's backup
			// copy) from aborting the whole restore.
			continue
		}
		cfg, opts, err := configure(id)
		if errors.Is(err, ErrSkipTask) {
			continue
		}
		if err != nil {
			return out, fmt.Errorf("task %q: configure: %w", id, err)
		}
		st, err := root.Open(ctx, id)
		if err != nil {
			return out, fmt.Errorf("task %q: open store: %w", id, err)
		}
		task, err := h.CreateTask(ctx, id, cfg, append(opts, WithStore(st))...)
		if err != nil {
			return out, err
		}
		out = append(out, task)
	}
	return out, nil
}

// Close flushes durability for every hosted task: each task's
// checkpointer is stopped, its server is halted (so no checkin can be
// acknowledged past its final snapshot — devices get ErrStopped, and
// checkouts still answer, with Done set), a final snapshot is written,
// and the journal is closed; tasks without a store are untouched. A halt
// is not learning state: a hub reopened from the same stores resumes
// every task the learning rule had not stopped. Errors are collected per
// task (prefixed with the task ID) and joined, so one failing store never
// hides another task's flush failure. Idempotent.
func (h *Hub) Close(ctx context.Context) error {
	var errs []error
	for _, t := range h.Tasks() {
		if err := t.dur.close(ctx); err != nil {
			errs = append(errs, fmt.Errorf("task %q: %w", t.id, err))
		}
	}
	return errors.Join(errs...)
}
