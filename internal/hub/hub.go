// Package hub hosts many named Crowd-ML learning tasks inside one server
// process. The paper's Web portal (Section V-A) assumes a portal listing
// multiple crowd-learning tasks that devices can browse and join; Hub is
// the server-side registry backing that design: each task is an
// independent core.Server (Algorithm 2 instance) addressed by a stable
// task ID, and the HTTP layer routes /v1/tasks/{id}/... requests to it.
//
// The registry is one table under one read-write lock: hosted tasks,
// tombstones of closed ones, IDs reserved by an in-flight CreateTask, and
// the routers of sharded logical tasks with their members. Resolve
// answers "what does this ID serve" for the request path (one read lock,
// one map lookup or two), Hosted lists what the crowd sees — shard
// members folded into their logical row — and Progress is the one
// progress view every listing, stats body, health row and portal page
// renders. Within a task, the core.Server hot path is built for
// read-mostly concurrency: checkouts and stats reads are lock-free
// (immutable parameter snapshots, atomic counters, one device registry
// table behind a read-write lock), and concurrent checkins are applied in groups by a batch
// leader under a single parameter-lock acquisition.
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
	"sort"
	"sync"
	"sync/atomic"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
)

// maxTombstones bounds the memory spent remembering closed task IDs (the
// 409-instead-of-404 answer of Hub.Resolve).
const maxTombstones = 16 * 1024

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
	// (AsReplicaOf); "" for a leader-role task. replica is the status the
	// replication runtime last published (see SetReplicaStatus in
	// replica.go).
	replicaOf string
	replica   atomic.Pointer[ReplicaStatus]
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

// Hub is the registry of named learning tasks, safe for concurrent use.
// One lock guards the whole table, so "is this ID free" is decided once
// for plain tasks and sharded logical tasks alike; it is held for map
// operations only — never across a store, a server or a router call.
type Hub struct {
	mu      sync.RWMutex
	tasks   map[string]*Task
	closed  map[string]struct{} // tombstones for CloseTask'd IDs
	pending map[string]struct{} // IDs reserved by an in-flight CreateTask
	// routers maps a sharded logical task's ID to its mounted router,
	// memberOf each member task's ID to that logical ID (see sharded.go).
	routers  map[string]ShardRouter
	memberOf map[string]string
}

// New returns an empty hub.
func New() *Hub {
	return &Hub{
		tasks:    make(map[string]*Task),
		closed:   make(map[string]struct{}),
		pending:  make(map[string]struct{}),
		routers:  make(map[string]ShardRouter),
		memberOf: make(map[string]string),
	}
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
// journal is the task's cfg.OnCommit, so a durable task whose cfg
// already sets one is refused.
func (h *Hub) CreateTask(ctx context.Context, taskID string, cfg core.ServerConfig, opts ...TaskOption) (*Task, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !ValidTaskID(taskID) {
		return nil, fmt.Errorf("%q: %w", taskID, ErrBadTaskID)
	}
	var o createOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.info.Name == "" {
		o.info.Name = taskID
	}
	if cfg.Metrics == nil {
		cfg.Metrics = core.NewServerMetrics(o.metrics, taskID)
	}
	// Reserve the ID before any side effects: opening the store's journal
	// repairs (truncates) its tail and the restore replays it, neither of
	// which may ever touch a store whose task is already live — a racing
	// duplicate could otherwise truncate the winner's half-flushed append
	// as a "torn tail". The reservation makes duplicate rejection happen
	// strictly before the store is opened. A mounted router owns its
	// logical ID's whole URL namespace (a plain task underneath it would be
	// unreachable), and MountShardRouter checks the reservation under the
	// same lock, so of a create and a mount racing for one ID exactly one
	// wins.
	h.mu.Lock()
	if _, sharded := h.routers[taskID]; sharded {
		h.mu.Unlock()
		return nil, fmt.Errorf("%q: a sharded logical task uses this ID: %w", taskID, ErrTaskExists)
	}
	if h.takenLocked(taskID) {
		h.mu.Unlock()
		return nil, fmt.Errorf("%q: %w", taskID, ErrTaskExists)
	}
	h.pending[taskID] = struct{}{}
	h.mu.Unlock()
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
		h.mu.Lock()
		delete(h.pending, taskID)
		h.mu.Unlock()
	}()

	if o.replicaOf != "" && o.store != nil {
		// A follower's state arrives through Server.Replay, which never
		// calls OnCommit by design — a local WAL would silently diverge
		// from the replica's actual state. Followers re-bootstrap from the
		// leader instead of recovering locally.
		return nil, fmt.Errorf("task %q: a replica task (AsReplicaOf) cannot also have a store", taskID)
	}
	if o.store != nil {
		if cfg.OnCommit != nil {
			return nil, fmt.Errorf("task %q: a durable task's OnCommit is its write-ahead journal; cfg.OnCommit must be nil", taskID)
		}
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
		dur = newDurability(o.store, journal, o.policy, o.retention, o.sync)
		dur.m = newDurMetrics(o.metrics, taskID)
		dur.m.updateSegmentGauge(ctx, o.store)
		cfg.OnCommit = dur.commit
		cfg.Metrics = cfg.Metrics.CommitStages(o.sync == SyncBatch)
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

	h.mu.Lock()
	delete(h.pending, taskID)
	h.tasks[taskID] = task
	delete(h.closed, taskID)
	registered = true
	h.mu.Unlock()
	return task, nil
}

// takenLocked reports whether taskID is hosted or reserved by an
// in-flight CreateTask. Caller holds h.mu.
func (h *Hub) takenLocked(taskID string) bool {
	_, live := h.tasks[taskID]
	_, reserving := h.pending[taskID]
	return live || reserving
}

// Task looks up a hosted task (a plain task or a shard member) by its own
// ID. Request paths that must also serve sharded logical IDs use Resolve.
func (h *Hub) Task(taskID string) (*Task, bool) {
	h.mu.RLock()
	t, ok := h.tasks[taskID]
	h.mu.RUnlock()
	return t, ok
}

// Entry is what one hosted ID serves: exactly one of Task — a plain task,
// or a shard member addressed by its own ID — and Router, a sharded
// logical task. Entries are comparable: two are equal iff they name the
// same ID served by the same task or router instance.
type Entry struct {
	id     string
	Task   *Task
	Router ShardRouter
}

// ID returns the ID the entry is hosted under.
func (e Entry) ID() string { return e.id }

// Info returns the portal metadata of the task or logical task.
func (e Entry) Info() TaskInfo {
	if e.Router != nil {
		return e.Router.Info()
	}
	return e.Task.info
}

// Progress returns the entry's progress view: the task's own, or the
// router's merged one.
func (e Entry) Progress() Progress {
	if e.Router != nil {
		return e.Router.MergedStats()
	}
	return e.Task.Progress()
}

// Owner returns the hosted task whose replica role decides whether a
// write from deviceID is accepted: the task itself, or in a sharded tier
// the member owning the device.
func (e Entry) Owner(deviceID string) *Task {
	if e.Router != nil {
		return e.Router.Owner(deviceID)
	}
	return e.Task
}

// Resolve reports what taskID serves. The misses are typed for the HTTP
// layer's status mapping: an ID that was hosted here and has been closed
// (and not re-created since) wraps core.ErrStopped, so remote devices
// stand down instead of retrying a 404 forever; any other unknown ID
// wraps ErrTaskNotFound. Tombstones are bounded, so under heavy task
// churn the oldest closures may be forgotten.
func (h *Hub) Resolve(taskID string) (Entry, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if t, ok := h.tasks[taskID]; ok {
		return Entry{id: taskID, Task: t}, nil
	}
	if r, ok := h.routers[taskID]; ok {
		return Entry{id: taskID, Router: r}, nil
	}
	if _, closed := h.closed[taskID]; closed {
		return Entry{}, fmt.Errorf("task %q has been closed: %w", taskID, core.ErrStopped)
	}
	return Entry{}, fmt.Errorf("%q: %w", taskID, ErrTaskNotFound)
}

// Hosted lists what the crowd sees hosted here, sorted by ID: every plain
// task and every sharded logical task. Shard members are an
// implementation detail and are folded out — their logical entry
// represents them.
func (h *Hub) Hosted() []Entry {
	h.mu.RLock()
	out := make([]Entry, 0, len(h.tasks)+len(h.routers))
	for id, t := range h.tasks {
		if _, member := h.memberOf[id]; !member {
			out = append(out, Entry{id: id, Task: t})
		}
	}
	for id, r := range h.routers {
		out = append(out, Entry{id: id, Router: r})
	}
	h.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Progress is the public progress view of one hosted ID — the
// differentially private statistics the paper's portal displays (Section
// V-A). For a plain task every field is read lock-free from its server's
// atomic counters; for a sharded logical task the values come from the
// published merged view: Iteration is the sum of the member iterations it
// incorporates, and the estimates are re-derived from the summed raw
// counters (ΣN_s, ΣN_e, ΣN^k_y across shards), so they compose exactly as
// if one leader had served the whole crowd.
type Progress struct {
	// Iteration is the number of applied checkins; for a sharded task the
	// merged counter, monotonically non-decreasing across merges.
	Iteration int
	// Stopped reports that the stopping criteria are met — for a sharded
	// task, on EVERY shard: devices stand down only when no shard will
	// accept their checkins.
	Stopped bool
	// ErrorEstimate is ΣN_e/ΣN_s; HasError is false until there are
	// samples.
	ErrorEstimate float64
	HasError      bool
	// PriorEstimate is ΣN^k_y/ΣN_s per class; nil until there are samples.
	PriorEstimate []float64
	// Classes, Dim is the model shape (shared by all members of a tier).
	Classes, Dim int
	// Shards is the member count of a sharded logical task, 0 for a plain
	// task.
	Shards int
}

// ProgressOf reads a server's progress view.
func ProgressOf(s *core.Server) Progress {
	p := Progress{Iteration: s.Iteration(), Stopped: s.Stopped()}
	p.Classes, p.Dim = s.ModelShape()
	p.ErrorEstimate, p.HasError = s.ErrEstimate()
	p.PriorEstimate, _ = s.PriorEstimate()
	return p
}

// Progress returns the task's progress view.
func (t *Task) Progress() Progress { return ProgressOf(t.server) }

// CloseTask stops the task's server for good (so devices checking out
// learn to stand down if they still hold the pointer), flushes a durable
// task's state — final checkpoint, journal closed; the stop is in it, so
// the task restores stopped — and removes the task from the registry,
// leaving a tombstone so the HTTP layer can tell remote devices the task
// has stopped (409) rather than that it never existed (404).
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
	if err := t.dur.close(ctx); err != nil {
		return fmt.Errorf("task %q: flush on close: %w", taskID, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, still := h.tasks[taskID]; !still {
		// A concurrent CloseTask won the removal race.
		return fmt.Errorf("%q: %w", taskID, ErrTaskNotFound)
	}
	delete(h.tasks, taskID)
	if len(h.closed) >= maxTombstones {
		// Bound tombstone memory under task churn by evicting an
		// arbitrary old entry; devices of a task evicted here fall
		// back to 404 instead of 409, which still fails their run.
		for old := range h.closed {
			delete(h.closed, old)
			break
		}
	}
	h.closed[taskID] = struct{}{}
	return nil
}

// Tasks returns every hosted task, shard members included, sorted by ID —
// the set Hub.Close flushes. Listings for the crowd use Hosted.
func (h *Hub) Tasks() []*Task {
	h.mu.RLock()
	out := make([]*Task, 0, len(h.tasks))
	for _, t := range h.tasks {
		out = append(out, t)
	}
	h.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Len reports the number of hosted tasks, shard members included.
func (h *Hub) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.tasks)
}
