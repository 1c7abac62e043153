// Package hub hosts many named Crowd-ML learning tasks inside one server
// process. The paper's Web portal (Section V-A) assumes a portal listing
// multiple crowd-learning tasks that devices can browse and join; Hub is
// the server-side registry backing that design: each task is an
// independent core.Server (Algorithm 2 instance) addressed by a stable
// task ID, and the HTTP layer routes /v1/tasks/{id}/... requests to it.
//
// The registry is sharded: task IDs hash onto a fixed set of
// independently locked shards, so concurrent checkins to different tasks
// never contend on one registry mutex. Within a task, the core.Server hot
// path is built for read-mostly concurrency: checkouts and stats reads
// are lock-free (immutable parameter snapshots, atomic counters, a
// hash-striped device registry), and concurrent checkins are applied in
// groups by a batch leader under a single parameter-lock acquisition —
// see core.ServerConfig's CheckinBatchSize/CheckinQueueDepth/
// CheckinFlushInterval knobs, which CreateTask passes through untouched.
//
// Durability is hub-managed (the MySQL role of the paper's prototype):
// CreateTask(..., WithStore(st)) makes a task durable — restored from
// its store before registration, write-ahead journaled on every applied
// checkin, snapshotted asynchronously per WithCheckpointPolicy — and
// Hub.Restore/Hub.Close handle whole-process restart and shutdown. See
// durability.go.
package hub

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
)

// NumShards is the number of independently locked registry shards.
const NumShards = 16

// maxTombstonesPerShard bounds the per-shard memory spent remembering
// closed task IDs (see Hub.Closed).
const maxTombstonesPerShard = 1024

var (
	// ErrTaskExists is returned by CreateTask for a duplicate task ID.
	ErrTaskExists = errors.New("crowdml: task already exists")

	// ErrTaskNotFound is returned when a task ID resolves to nothing —
	// it was never created, or it has been closed.
	ErrTaskNotFound = errors.New("crowdml: task not found")

	// ErrBadTaskID is returned for task IDs that are empty, too long, or
	// contain characters outside [A-Za-z0-9._-] (task IDs appear in URL
	// paths and on-disk state directories).
	ErrBadTaskID = errors.New("crowdml: invalid task id")
)

// TaskInfo describes a crowd-learning task to prospective participants —
// the transparency details the paper's portal lists: objective, sensory
// data collected, labels collected, learning algorithm, and the privacy
// budget each contribution spends.
type TaskInfo struct {
	// Name is the task's display name.
	Name string
	// Objective explains what is being learned and why.
	Objective string
	// SensorData describes what raw data devices process locally.
	SensorData string
	// Labels names the target classes.
	Labels []string
	// Algorithm describes the learner (e.g. "multiclass logistic
	// regression via private distributed SGD").
	Algorithm string
	// Budget is the per-checkin privacy budget, displayed with its
	// composed total so participants can judge the privacy level.
	Budget privacy.Budget
}

// Task is one hosted learning task: a core.Server plus its portal
// metadata and (with WithStore) its durability engine. Tasks are created
// with Hub.CreateTask and remain valid (but stopped) after Hub.CloseTask
// removes them from the registry.
type Task struct {
	id     string
	server *core.Server
	info   TaskInfo
	dur    *durability // nil without WithStore
	// replicaOf is the leader base URL for a follower replica task
	// (AsReplicaOf); "" for a leader-role task. probe is the replication
	// runtime's telemetry hook (see BindReplicaProbe in replica.go).
	replicaOf string
	probe     probeBox
}

// ID returns the task's registry key.
func (t *Task) ID() string { return t.id }

// Server returns the task's underlying Crowd-ML server.
func (t *Task) Server() *core.Server { return t.server }

// Info returns the task's portal metadata.
func (t *Task) Info() TaskInfo { return t.info }

// Store returns the durability store attached with WithStore, or nil.
func (t *Task) Store() store.Store {
	if t.dur == nil {
		return nil
	}
	return t.dur.st
}

// closeDurability flushes and shuts down the task's durability engine
// (final snapshot + journal close). No-op for tasks without a store or
// whose durability was already closed.
func (t *Task) closeDurability(ctx context.Context) error {
	if t.dur == nil {
		return nil
	}
	return t.dur.close(ctx)
}

// TaskOption customizes CreateTask.
type TaskOption func(*createOptions)

type createOptions struct {
	info      TaskInfo
	store     store.Store
	policy    CheckpointPolicy
	sync      SyncPolicy
	retention RetentionPolicy
	replicaOf string
	metrics   *telemetry.Registry
}

// WithInfo attaches portal metadata to the task. When the info has no
// Name, the task ID is used.
func WithInfo(info TaskInfo) TaskOption {
	return func(o *createOptions) { o.info = info }
}

// shard is one independently locked slice of the registry.
type shard struct {
	mu      sync.RWMutex
	tasks   map[string]*Task
	closed  map[string]struct{} // tombstones for CloseTask'd IDs
	pending map[string]struct{} // IDs reserved by an in-flight CreateTask
}

// Hub is a sharded registry of named learning tasks. It is safe for
// concurrent use; operations on different tasks proceed without shared
// lock contention.
type Hub struct {
	shards [NumShards]shard

	// sharded indexes the mounted ShardRouters fronting sharded logical
	// tasks (see sharded.go).
	sharded shardIndex
}

// New returns an empty hub.
func New() *Hub {
	h := &Hub{}
	for i := range h.shards {
		h.shards[i].tasks = make(map[string]*Task)
		h.shards[i].closed = make(map[string]struct{})
		h.shards[i].pending = make(map[string]struct{})
	}
	return h
}

// shardFor picks the shard owning a task ID (FNV-1a).
func (h *Hub) shardFor(taskID string) *shard {
	f := fnv.New32a()
	_, _ = f.Write([]byte(taskID)) // fnv never errors
	return &h.shards[f.Sum32()%NumShards]
}

// ValidTaskID reports whether id is usable as a task ID: non-empty, at
// most 128 bytes, charset [A-Za-z0-9._-], and not a filesystem dot path
// (task IDs appear in URL paths and on-disk state directories).
func ValidTaskID(id string) bool {
	if id == "" || len(id) > 128 || id == "." || id == ".." {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// CreateTask constructs a core.Server from cfg and registers it under
// taskID. Re-using the ID of a previously closed task clears that task's
// tombstone. It fails with ErrTaskExists for duplicate IDs
// and ErrBadTaskID for IDs unusable in URLs.
//
// With WithStore, the task is durable: any state already persisted is
// restored (latest checkpoint + deterministic replay of the journal
// tail) before the task is registered, every applied checkin is
// journaled write-ahead of its acknowledgment, and an asynchronous
// checkpointer snapshots the state per WithCheckpointPolicy. The
// supplied cfg.OnCheckin still runs, after the journal append for the
// same iteration.
func (h *Hub) CreateTask(ctx context.Context, taskID string, cfg core.ServerConfig, opts ...TaskOption) (*Task, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !ValidTaskID(taskID) {
		return nil, fmt.Errorf("%q: %w", taskID, ErrBadTaskID)
	}
	if h.shardRouterExists(taskID) {
		// A mounted router owns the logical ID's whole URL namespace; a
		// plain task underneath it would be unreachable.
		return nil, fmt.Errorf("%q: a sharded logical task uses this ID: %w", taskID, ErrTaskExists)
	}
	var o createOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.info.Name == "" {
		o.info.Name = taskID
	}
	if o.metrics != nil && cfg.Metrics == nil {
		cfg.Metrics = core.NewServerMetrics(o.metrics, taskID)
	}
	// Reserve the ID before any side effects: opening the store's journal
	// repairs (truncates) its tail and the restore replays it, neither of
	// which may ever touch a store whose task is already live — a racing
	// duplicate could otherwise truncate the winner's half-flushed append
	// as a "torn tail". The reservation makes duplicate rejection happen
	// strictly before the store is opened.
	sh := h.shardFor(taskID)
	sh.mu.Lock()
	_, live := sh.tasks[taskID]
	_, reserving := sh.pending[taskID]
	if live || reserving {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%q: %w", taskID, ErrTaskExists)
	}
	sh.pending[taskID] = struct{}{}
	sh.mu.Unlock()
	// Deferred cleanup rather than per-path calls: a panic out of
	// user-supplied code (an Updater panicking during journal replay)
	// must not strand the reservation or the open journal handle any
	// more than an ordinary error would.
	registered := false
	var dur *durability
	defer func() {
		if registered {
			return
		}
		if dur != nil {
			dur.stopOnce.Do(func() { close(dur.stopCh) })
			_ = dur.journal.Close()
		}
		sh.mu.Lock()
		delete(sh.pending, taskID)
		sh.mu.Unlock()
	}()

	if o.replicaOf != "" && o.store != nil {
		// A follower's state arrives through Server.Replay, which bypasses
		// the OnCheckin journaling hook by design — a local WAL would
		// silently diverge from the replica's actual state. Followers
		// re-bootstrap from the leader instead of recovering locally.
		return nil, fmt.Errorf("task %q: a replica task (AsReplicaOf) cannot also have a store", taskID)
	}
	if o.store != nil {
		// Fail retention misconfiguration at creation, not at the first
		// checkpoint: a policy other than KeepAll needs a store that can
		// actually prune, and the archive mode needs a destination.
		if o.retention.mode != retentionKeep {
			if _, ok := o.store.(store.SegmentRetainer); !ok {
				return nil, fmt.Errorf("task %q: retention policy needs a store implementing store.SegmentRetainer", taskID)
			}
		}
		if o.retention.mode == retentionArchive && o.retention.dir == "" {
			return nil, fmt.Errorf("task %q: ArchiveCovered needs a non-empty archive directory", taskID)
		}
		journal, err := o.store.OpenJournal(ctx)
		if err != nil {
			return nil, fmt.Errorf("task %q: open journal: %w", taskID, err)
		}
		dur = newDurability(o.store, journal, o.policy, o.sync, o.retention, cfg.OnCheckin, cfg.OnBatchCommit)
		dur.m = newDurMetrics(o.metrics, taskID)
		dur.m.updateSegmentGauge(ctx, o.store)
		cfg.OnCheckin = dur.onCheckin
		if o.sync == SyncBatch {
			// Group commit rides the batch leader's per-batch hook: one
			// fsync covering the whole batch, before any of its
			// acknowledgments (the user's own OnBatchCommit, if any, runs
			// after the sync).
			cfg.OnBatchCommit = dur.onBatchCommit
		}
	}
	server, err := core.NewServer(cfg)
	if err != nil {
		return nil, fmt.Errorf("task %q: %w", taskID, err)
	}
	if dur != nil {
		dur.srv = server
		if err := restoreInto(ctx, server, o.store, taskID); err != nil {
			return nil, err
		}
		// The checkpointer starts before the task is visible, so a racing
		// CloseTask/Close can always join it.
		go dur.run()
	}
	task := &Task{id: taskID, server: server, info: o.info, dur: dur, replicaOf: o.replicaOf}

	sh.mu.Lock()
	delete(sh.pending, taskID)
	sh.tasks[taskID] = task
	delete(sh.closed, taskID)
	registered = true
	sh.mu.Unlock()
	return task, nil
}

// Task looks up a task by ID.
func (h *Hub) Task(taskID string) (*Task, bool) {
	sh := h.shardFor(taskID)
	sh.mu.RLock()
	t, ok := sh.tasks[taskID]
	sh.mu.RUnlock()
	return t, ok
}

// CloseTask stops the task's server (administrative shutdown, so devices
// checking out learn to stand down if they still hold the pointer),
// flushes a durable task's state — final checkpoint, journal closed —
// and removes the task from the registry, leaving a tombstone so the
// HTTP layer can tell remote devices the task has stopped (409) rather
// than that it never existed (404).
//
// The flush runs BEFORE the removal: if it fails (a wedged or erroring
// store), the error is returned and the task stays registered — stopped,
// but still reachable — so the operator can retry CloseTask (or
// Hub.Close) once the store recovers, instead of the flush becoming
// permanently unreachable.
func (h *Hub) CloseTask(ctx context.Context, taskID string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t, ok := h.Task(taskID)
	if !ok {
		return fmt.Errorf("%q: %w", taskID, ErrTaskNotFound)
	}
	t.server.Stop()
	if err := t.closeDurability(ctx); err != nil {
		return fmt.Errorf("task %q: flush on close: %w", taskID, err)
	}
	sh := h.shardFor(taskID)
	sh.mu.Lock()
	if _, still := sh.tasks[taskID]; !still {
		// A concurrent CloseTask won the removal race.
		sh.mu.Unlock()
		return fmt.Errorf("%q: %w", taskID, ErrTaskNotFound)
	}
	delete(sh.tasks, taskID)
	if len(sh.closed) >= maxTombstonesPerShard {
		// Bound tombstone memory under task churn by evicting an
		// arbitrary old entry; devices of a task evicted here fall
		// back to 404 instead of 409, which still fails their run.
		for old := range sh.closed {
			delete(sh.closed, old)
			break
		}
	}
	sh.closed[taskID] = struct{}{}
	sh.mu.Unlock()
	return nil
}

// Closed reports whether the task ID was hosted here and has been
// closed (and not re-created since). Tombstones are bounded per shard,
// so under heavy task churn the oldest closures may be forgotten.
func (h *Hub) Closed(taskID string) bool {
	sh := h.shardFor(taskID)
	sh.mu.RLock()
	_, ok := sh.closed[taskID]
	sh.mu.RUnlock()
	return ok
}

// Tasks returns every hosted task, sorted by ID (a stable order for the
// portal listing and the /v1/tasks endpoint).
func (h *Hub) Tasks() []*Task {
	var out []*Task
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.RLock()
		for _, t := range sh.tasks {
			out = append(out, t)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Len reports the number of hosted tasks.
func (h *Hub) Len() int {
	n := 0
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.RLock()
		n += len(sh.tasks)
		sh.mu.RUnlock()
	}
	return n
}
