package crowdml

import (
	"context"
	"net/http"
	"time"

	"github.com/crowdml/crowdml/internal/activity"
	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/portal"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/replica"
	"github.com/crowdml/crowdml/internal/shard"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
	"github.com/crowdml/crowdml/internal/transport"
)

// Sample is one (feature vector, target) pair. Classification models read
// Y; the ridge regressor reads T. For the differential-privacy guarantees
// to hold, features must satisfy ‖X‖₁ ≤ 1 (normalize with NormalizeL1).
type Sample = model.Sample

// Model is a learnable classifier or predictor; see NewLogisticRegression,
// NewLinearSVM and NewRidgeRegression.
type Model = model.Model

// NewLogisticRegression returns the paper's Table I model: C-class
// logistic regression over D-dimensional features, gradient sensitivity 4.
func NewLogisticRegression(classes, dim int) Model {
	return model.NewLogisticRegression(classes, dim)
}

// NewLinearSVM returns a C-class linear SVM with the Crammer–Singer hinge
// subgradient (sensitivity 4).
func NewLinearSVM(classes, dim int) Model {
	return model.NewLinearSVM(classes, dim)
}

// NewRidgeRegression returns a D-dimensional linear regressor whose
// gradient residual is clipped to ±residualClip (sensitivity
// 2·residualClip); errTolerance defines its misclassification indicator.
func NewRidgeRegression(dim int, residualClip, errTolerance float64) Model {
	return model.NewRidgeRegression(dim, residualClip, errTolerance)
}

// Eps is a differential-privacy level ε; the zero value disables noise
// (the paper's ε⁻¹ = 0 setting).
type Eps = privacy.Eps

// FromInv converts the paper's ε⁻¹ parametrization into an Eps
// (FromInv(0.1) is ε = 10; FromInv(0) disables privacy).
func FromInv(inv float64) Eps { return privacy.FromInv(inv) }

// Budget is the per-device privacy budget: ε_g for gradients, ε_e for the
// error count, ε_yk for each label count; the composed level is
// ε = ε_g + ε_e + C·ε_yk.
type Budget = privacy.Budget

// Schedule maps server iteration t to the learning rate η(t).
type Schedule = optimizer.Schedule

// InvSqrt is the paper's default schedule η(t) = c/√t (Eq. 5).
type InvSqrt = optimizer.InvSqrt

// Constant is a fixed learning rate.
type Constant = optimizer.Constant

// Updater applies one server-side parameter update (Eq. 3).
type Updater = optimizer.Updater

// NewSGD returns the projected-SGD updater of Eq. (3); radius ≤ 0 disables
// the projection Π_W.
func NewSGD(schedule Schedule, radius float64) Updater {
	return &optimizer.SGD{Schedule: schedule, Radius: radius}
}

// NewAdaGrad returns the adaptive per-coordinate updater of Remark 3
// (robust to outlier gradients from malignant devices). AdaGrad
// implements StateExporter, so a durable task using it recovers
// bit-exactly: its accumulators ride in every checkpoint.
func NewAdaGrad(eta, radius float64) Updater {
	return &optimizer.AdaGrad{Eta: eta, Radius: radius}
}

// StateExporter is optionally implemented by Updaters carrying internal
// state beyond the parameter vector (AdaGrad's per-coordinate
// accumulators, Momentum's velocity). The exported vector rides inside
// checkpoints (ServerState.UpdaterState) and is handed back on restore,
// making recovery bit-exact for stateful updaters too — a custom
// Updater that wants exact recovery should implement it.
type StateExporter = optimizer.StateExporter

// Server is the Crowd-ML server (Algorithm 2). Safe for concurrent use
// and built for read-mostly traffic: checkouts and statistics are served
// lock-free from a pinned, published parameter snapshot and atomic counters,
// while concurrent checkins are applied in groups by a batch leader under
// a single lock acquisition.
type Server = core.Server

// ServerConfig configures a Server. Note the OnCommit contracts: it runs
// once per applying batch, outside the server's parameter lock and before
// any of the batch's Checkin calls return, its records are in iteration
// order, and they are only valid until it returns (a sink that keeps the
// gradient copies it). A durable hub task's OnCommit is its journal.
type ServerConfig = core.ServerConfig

// NewServer constructs a standalone server. Most deployments should
// instead host tasks on a Hub (NewHub + Hub.CreateTask), which is what
// the HTTP layer serves.
func NewServer(cfg ServerConfig) (*Server, error) { return core.NewServer(cfg) }

// Hub hosts many named learning tasks in one process — the paper's
// multi-task Web portal design (Section V-A). Its registry is one table
// under one lock: Resolve answers what an ID serves (a task, or a sharded
// logical task's router), Hosted lists what the crowd sees, and Progress
// is the one progress view every endpoint and portal page renders.
type Hub = hub.Hub

// Task is one learning task hosted on a Hub: a Server plus its portal
// metadata. Obtain with Hub.CreateTask or Hub.Task.
type Task = hub.Task

// TaskOption customizes Hub.CreateTask; see WithTaskInfo and WithStore.
type TaskOption = hub.TaskOption

// NewHub returns an empty task hub.
func NewHub() *Hub { return hub.New() }

// OpenHub reconstructs a hub from persisted state after a restart: every
// task ID listed under root is re-created via configure (which supplies
// what a Store cannot hold — the model, updater and portal metadata, or
// ErrSkipTask to leave a task unopened), restored to its exact pre-crash
// iteration, parameters and totals (latest checkpoint + journal-tail
// replay), and resumes journaling and checkpointing. Shut the hub down
// with Hub.Close, which flushes a final snapshot per task.
func OpenHub(ctx context.Context, root StoreRoot, configure TaskConfig) (*Hub, error) {
	h := hub.New()
	if _, err := h.Restore(ctx, root, configure); err != nil {
		// Tasks restored before the failure have open journals; flush them
		// so a half-failed open never strands file handles. The cleanup
		// gets its own short deadline (detached from the possibly-dead
		// ctx) so a wedged store cannot hang OpenHub's error return.
		cleanupCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
		defer cancel()
		_ = h.Close(cleanupCtx)
		return nil, err
	}
	return h, nil
}

// TaskConfig supplies the runtime configuration for a persisted task
// being restored by OpenHub or Hub.Restore.
type TaskConfig = hub.TaskConfig

// CheckpointPolicy controls a durable task's asynchronous checkpoint
// cadence (WithCheckpointPolicy): Every snapshots on a timer, AfterN
// after that many checkins since the last snapshot; both coalesce. The
// zero policy defaults to once a minute. Checkpoints only bound journal
// replay time — the write-ahead journal alone already makes every
// acknowledged checkin durable.
type CheckpointPolicy = hub.CheckpointPolicy

// WithTaskInfo attaches portal metadata to a task at creation.
func WithTaskInfo(info TaskInfo) TaskOption { return hub.WithInfo(info) }

// WithStore makes the task durable on st: persisted state is restored
// before the task goes live, every applied checkin is journaled ahead of
// its acknowledgment, and an asynchronous coalescing checkpointer
// snapshots the state per WithCheckpointPolicy — all off the lock-free
// hot path. Flush with Hub.Close or Hub.CloseTask.
func WithStore(st Store) TaskOption { return hub.WithStore(st) }

// WithCheckpointPolicy sets a durable task's checkpoint cadence (only
// meaningful together with WithStore). Each successful checkpoint also
// rotates the journal onto a fresh segment, so the cadence bounds both
// replay time and how much journal a restart must read.
func WithCheckpointPolicy(p CheckpointPolicy) TaskOption { return hub.WithCheckpointPolicy(p) }

// SyncPolicy selects how hard a durable task's journal pushes entries
// toward stable storage: SyncNone (flushed to the OS, process-crash
// durability — the default), SyncBatch (group-commit fsync: the batch
// leader fsyncs once per applied batch before any of its
// acknowledgments, buying power-loss durability at amortized cost; an
// uncontended checkin is a batch of one, so its fsync precedes its ack).
type SyncPolicy = hub.SyncPolicy

// SyncPolicy values; see the SyncPolicy docs and docs/OPERATIONS.md for
// the durability/throughput trade.
const (
	SyncNone  = hub.SyncNone
	SyncBatch = hub.SyncBatch
)

// WithSyncPolicy sets a durable task's journal fsync policy (only
// meaningful together with WithStore). The zero policy is SyncNone.
func WithSyncPolicy(p SyncPolicy) TaskOption { return hub.WithSyncPolicy(p) }

// Task-registry and restore sentinel errors.
var (
	ErrTaskExists   = hub.ErrTaskExists
	ErrTaskNotFound = hub.ErrTaskNotFound
	ErrBadTaskID    = hub.ErrBadTaskID
	ErrSkipTask     = hub.ErrSkipTask
)

// ValidTaskID reports whether id is usable as a task ID (the charset
// Hub.CreateTask enforces) — useful for validating external input before
// doing side-effectful work keyed on the ID.
func ValidTaskID(id string) bool { return hub.ValidTaskID(id) }

// Device is a Crowd-ML device (Algorithm 1). Not safe for concurrent use.
type Device = core.Device

// DeviceConfig configures a Device.
type DeviceConfig = core.DeviceConfig

// NewDevice constructs a device.
func NewDevice(cfg DeviceConfig) (*Device, error) { return core.NewDevice(cfg) }

// SampleSource yields a device's local sample stream for Device.Run;
// io.EOF ends the stream cleanly.
type SampleSource = core.SampleSource

// The paper's activity-recognition task (Section V-B): ActivityClasses
// activities, each sample ActivityFeatureDim L1-normalized FFT bins of
// accelerometer magnitude.
const (
	ActivityClasses    = activity.NumClasses
	ActivityFeatureDim = activity.FeatureDim
)

// ActivityNames returns the activities' names, indexed by label.
func ActivityNames() []string {
	names := activity.Names
	return names[:]
}

// NewActivitySimulator returns an endless, seeded stream of simulated
// smartphone activity samples: a tri-axial accelerometer at 20 Hz, one
// 3.2 s window per sample, each sample's activity differing from the one
// before (the paper's label-change-triggered collection).
func NewActivitySimulator(seed uint64) SampleSource { return activity.NewGenerator(seed) }

// Transport connects devices to a server.
type Transport = core.Transport

// CheckoutResponse and CheckinRequest are the framework's wire messages.
// CheckoutResponse.Params is the caller's own slice except from a
// WireBinaryDelta HTTPClient, where it is shared and read-only.
type (
	CheckoutResponse = core.CheckoutResponse
	CheckinRequest   = core.CheckinRequest
)

// Sentinel errors returned by Server and Device methods.
var (
	ErrAuth       = core.ErrAuth
	ErrStopped    = core.ErrStopped
	ErrBadCheckin = core.ErrBadCheckin
	ErrBufferFull = core.ErrBufferFull
	ErrBadSample  = core.ErrBadSample
)

// HTTPClient is the device-side HTTP transport. Every device-protocol
// route is task-scoped: bind the client to a task with WithTask before
// using it as a Transport. All its methods honor context cancellation
// and deadlines.
type HTTPClient = transport.HTTPClient

// NewHTTPClient returns a Transport speaking to baseURL over HTTP
// (nil client = 30 s timeout default). WithTask binds it to one task's
// /v1/tasks/{id}/ routes; its Register method then enrolls via that
// task's enrollment endpoint.
func NewHTTPClient(baseURL string, client *http.Client) *HTTPClient {
	return transport.NewHTTPClient(baseURL, client)
}

// TaskSummary is one row of the GET /v1/tasks listing.
type TaskSummary = transport.TaskSummary

// NewHTTPHandler exposes every task hosted on the hub over HTTP:
// task-scoped routes /v1/tasks/{id}/{checkout,checkin,stats} plus a
// /v1/tasks listing. If enrollKey is non-empty, /v1/tasks/{id}/register
// is enabled so devices holding the key can self-enroll. A non-nil reg
// adds operational telemetry: GET /v1/metrics serves reg's Prometheus
// text exposition (on leaders and followers alike), and every request
// through the handler is counted by matched route pattern and status
// class. Pass the same registry to WithMetrics / ReplicaConfig.Metrics so
// the core, durability and replica series surface on the same endpoint.
func NewHTTPHandler(h *Hub, enrollKey string, reg *MetricsRegistry) http.Handler {
	hd := transport.NewHandler(h)
	hd.EnableEnrollment(enrollKey)
	if reg != nil {
		hd.EnableMetrics(reg)
	}
	return hd
}

// MetricsRegistry is the operational telemetry registry: a namespace of
// atomic counters, gauges and fixed-bucket histograms with lock-free
// recording and a Prometheus text-exposition writer. Distinct from the
// paper's ML-evaluation metrics (internal/metrics): this one answers
// operator questions — checkin rates, fsync latency, replica lag. A nil
// *MetricsRegistry is valid everywhere one is accepted and disables
// telemetry.
type MetricsRegistry = telemetry.Registry

// NewMetricsRegistry returns an empty operational telemetry registry.
// Wire it into the HTTP layer with NewHTTPHandler, into
// tasks with WithMetrics, and into followers via
// ReplicaConfig.Metrics; see docs/OPERATIONS.md "Monitoring" for the
// metric name table.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// WithMetrics instruments the created task in reg: the core hot-path
// series (checkouts, checkins, latency histograms, batch sizes,
// rejections) and — together with WithStore — the durability series
// (journal appends, fsync latency, checkpoint saves, rotations,
// retention prunes, fail-stops, live segment gauge), all labeled with
// the task ID. Recording is lock-free atomic adds on pre-bound handles;
// the benchgate-enforced contract is that instrumentation keeps the
// checkout/checkin hot paths within the regression envelope.
func WithMetrics(reg *MetricsRegistry) TaskOption { return hub.WithMetrics(reg) }

// ServerMetrics is the pre-bound handle set a standalone Server (one
// built with NewServer rather than hosted on a hub) records into via
// ServerConfig.Metrics. Hub-hosted tasks should use WithMetrics, which
// binds this automatically under the task's ID.
type ServerMetrics = core.ServerMetrics

// NewServerMetrics binds the core-layer series for one task name in
// reg; a nil reg yields a disabled bundle, never nil.
func NewServerMetrics(reg *MetricsRegistry, task string) *ServerMetrics {
	return core.NewServerMetrics(reg, task)
}

// NormalizeL1 scales x in place to unit L1 norm — the feature
// normalization required by the privacy analysis (Theorem 1 assumes
// ‖x‖₁ ≤ 1, and Device.AddSample refuses a larger x with ErrBadSample).
func NormalizeL1(x []float64) {
	var n float64
	for _, v := range x {
		if v < 0 {
			n -= v
		} else {
			n += v
		}
	}
	if n == 0 {
		return
	}
	for i := range x {
		x[i] /= n
	}
}

// ServerState is a serializable snapshot of the server's learning state
// (parameters, iteration counter, per-device progress counters); see
// Server.ExportState and Server.ImportState. Device credentials are never
// part of the state.
type ServerState = core.ServerState

// ReplayRecord is one journaled, previously-acknowledged checkin for
// Server.Replay — the low-level recovery entry point WithStore-managed
// restore is built on (most callers never touch it directly).
type ReplayRecord = core.ReplayRecord

// ReplaySource streams replay records into Server.Replay, one at a
// time (io.EOF ends the stream) — recovery memory stays O(one entry)
// however long the journal tail is. The hub's restore path adapts a
// JournalCursor into one.
type ReplaySource = core.ReplaySource

// ErrReplayGap is returned by Server.Replay when the journal tail skips
// an iteration — replaying past a gap would silently diverge from the
// pre-crash state.
var ErrReplayGap = core.ErrReplayGap

// TaskInfo describes a crowd-learning task for the Web portal: objective,
// sensory data, labels, algorithm, and privacy budget — the transparency
// details of the paper's Section V-A portal.
type TaskInfo = hub.TaskInfo

// NewPortalIndex returns the multi-task Web portal for a hub: "/" lists
// every hosted task and "tasks/{id}" serves each task's transparency
// page — the paper's portal where devices browse crowd-learning tasks
// before joining one.
func NewPortalIndex(h *Hub) http.Handler {
	return portal.NewIndex(h)
}

// Store is the pluggable durability backend for one task's learning
// state: atomic checkpoints (Save/Load) plus a write-ahead checkin
// journal (OpenJournal to append, OpenCursor to stream it back) — the
// role MySQL played in the paper's prototype. Attach one to a task with
// WithStore; recovery is load-latest-checkpoint + deterministic
// streaming replay of the journal tail.
type Store = store.Store

// FileStore is the one Store implementation: checkpoint frames (atomic
// write-to-temp + rename) and a segmented journal of binary wirecodec
// frames (journal-*.wal; sealed segments are the audit trail) under one
// directory. On disk it is guarded by an advisory flock so a second
// process cannot open a live journal (ErrStoreLocked).
type FileStore = store.FileStore

// NewFileStore opens (creating if needed) a store directory.
func NewFileStore(dir string) (*FileStore, error) { return store.NewFileStore(dir) }

// NewMemStore returns an empty FileStore in memory, for tests, benchmarks
// and embedded use. It takes no lock, so a "crash" is simulated by
// dropping the hub while keeping the store.
func NewMemStore() *FileStore { return store.NewMemStore() }

// StoreRoot is a namespace of per-task Stores — what OpenHub restores a
// whole process from. NewFileRoot exposes a directory of per-task
// subdirectories (the cmd/crowdml-server -state-dir layout); NewMemRoot
// is the same in memory.
type StoreRoot = store.Root

// NewFileRoot opens (creating if needed) a root directory of per-task
// stores.
func NewFileRoot(dir string) (*store.FileRoot, error) { return store.NewFileRoot(dir) }

// NewMemRoot returns an empty root of per-task stores in memory.
func NewMemRoot() *store.FileRoot { return store.NewMemRoot() }

// Store-layer sentinel errors. ErrNoCheckpoint is returned by Store.Load
// when nothing has been saved yet; ErrJournalTruncated is returned by
// JournalCursor.Next in io.EOF's place when the journal's final record
// is torn (the expected artifact of a crash mid-append — every valid
// entry has been yielded, so recovery treats it as a clean end of
// stream); ErrStoreLocked is returned by FileStore.OpenJournal when
// another live journal holds the store directory's advisory lock;
// ErrLegacyJournal is returned by FileStore's journal operations — so by
// CreateTask and OpenHub over the directory — when it still holds a
// pre-binary release's *.jsonl segments or pre-frame checkpoint.json (the
// wrapping message names the file and the upgrade step; see
// docs/OPERATIONS.md).
var (
	ErrNoCheckpoint     = store.ErrNoCheckpoint
	ErrJournalTruncated = store.ErrJournalTruncated
	ErrStoreLocked      = store.ErrStoreLocked
	ErrLegacyJournal    = store.ErrLegacyJournal
)

// Journal is a task's append-only, segmented write-ahead checkin log,
// opened with Store.OpenJournal. Entries are durable before Append
// returns; Rotate seals the live segment (the hub's checkpointer calls
// it after every successful snapshot); Sync fsyncs for power-loss
// durability (see SyncPolicy).
type Journal = store.Journal

// JournalEntry is one write-ahead record: the complete sanitized checkin
// (device, iteration, perturbed gradient, counters, echoed checkout
// version), enough to deterministically re-apply it during recovery.
type JournalEntry = store.JournalEntry

// JournalCursor streams journal entries one at a time, opened with
// Store.OpenCursor(ctx, afterIteration): Next yields entries in append
// order and returns io.EOF at the clean end of the stream — or
// ErrJournalTruncated in its place when the live segment ends in a
// crash-torn record (every valid entry has been yielded by then). An
// audit scan (OpenCursor with afterIteration 0) or a restore holds one
// decoded entry resident at a time, however large the journal is: an
// entry's Grad and LabelCounts are the cursor's own memory, valid until
// the next Next or Close (the bufio.Scanner.Bytes rule), so a caller that
// keeps them copies them. DeviceID is a string of its own.
type JournalCursor = store.JournalCursor

// SegmentInfo describes one journal segment (FileStore.Segments): its
// file name, chain sequence number, and whether a rotation has sealed
// it. The newest segment is live (Sealed == false), and retention never
// touches a live segment.
type SegmentInfo = store.SegmentInfo

// RetentionPolicy decides what happens to sealed journal segments the
// latest checkpoint fully covers (WithRetention): KeepAll (default)
// retains everything as the audit trail, PruneCovered deletes covered
// segments, ArchiveCovered(dir) moves them to dir unchanged. The
// checkpointer applies the policy only after a successful
// checkpoint-and-rotate cycle, never to the live segment and never to a
// segment the checkpoint does not cover — no policy can cost an
// acknowledged checkin.
type RetentionPolicy = hub.RetentionPolicy

// Retention policies; see RetentionPolicy and docs/OPERATIONS.md.
var (
	KeepAll      = hub.KeepAll
	PruneCovered = hub.PruneCovered
)

// ArchiveCovered returns the retention policy that moves covered sealed
// segments into dir (created if needed) instead of deleting them.
func ArchiveCovered(dir string) RetentionPolicy { return hub.ArchiveCovered(dir) }

// WithRetention sets a durable task's segment retention policy (only
// meaningful together with WithStore; any policy other than KeepAll
// requires a store implementing store.SegmentRetainer — FileStore does,
// on disk and in memory). The zero policy is KeepAll.
func WithRetention(p RetentionPolicy) TaskOption { return hub.WithRetention(p) }

// AsReplicaOf marks a task created on this hub as a read-only follower
// replica of the same task ID on the leader at leaderURL: its state is
// maintained solely by a Replicator tailing the leader's journal feed,
// reads (checkout, stats) are served locally, and the HTTP layer rejects
// writes with 409 plus an X-Crowdml-Leader hint. Incompatible with
// WithStore — a follower that dies re-bootstraps from the leader.
func AsReplicaOf(leaderURL string) TaskOption { return hub.AsReplicaOf(leaderURL) }

// ReplicaStatus is a follower task's replication telemetry (state,
// leader iteration, last error), published by its Replicator
// (Task.SetReplicaStatus) and surfaced per task on the GET /v1/healthz
// endpoint and via Task.ReplicaStatus; the leader is Task.LeaderURL.
type ReplicaStatus = hub.ReplicaStatus

// Replicator drives one follower task: it bootstraps from the leader's
// latest checkpoint, tails the leader's journal feed, and applies each
// shipped entry through the same deterministic replay path crash
// recovery uses, keeping the replica bit-exact while it serves the read
// path. Build with NewReplicator, run with Start/Stop (or Run for
// callers managing their own goroutines).
type Replicator = replica.Replicator

// ReplicaConfig configures a Replicator: the local follower task
// (created with AsReplicaOf), a task-bound HTTPClient aimed at the
// leader — whose RetryPolicy also times the waits after failed
// exchanges — and optional poll tuning.
type ReplicaConfig = replica.Config

// NewReplicator validates the configuration and publishes the follower
// task's initial bootstrapping status.
func NewReplicator(cfg ReplicaConfig) (*Replicator, error) { return replica.New(cfg) }

// WireFormat selects an HTTPClient's encoding for the device hot path
// (checkout/checkin); everything else — registration, stats, the journal
// feed — always speaks JSON. Pick one with HTTPClient.WithWire, parse a
// -wire flag with ParseWireFormat.
type WireFormat = transport.WireFormat

// Wire formats. WireJSON is the default and the compatibility baseline;
// WireBinary negotiates the framed little-endian binary protocol
// (docs/WIRE.md); WireBinaryDelta additionally requests deltas against
// the client's last checkout, and a bodyless 204 when nothing changed,
// so a steady-state poll carries no body at all. A WireBinaryDelta client's Checkout returns its cached
// snapshot itself — CheckoutResponse.Params is then shared and
// read-only, copy before writing; WireJSON and WireBinary hand out a
// private slice.
const (
	WireJSON        = transport.WireJSON
	WireBinary      = transport.WireBinary
	WireBinaryDelta = transport.WireBinaryDelta
)

// ParseWireFormat parses the -wire flag spelling: "json" (or empty),
// "binary", "binary-delta".
func ParseWireFormat(s string) (WireFormat, error) { return transport.ParseWireFormat(s) }

// RetryPolicy configures transparent capped-exponential-backoff retries
// (with full jitter) for an HTTPClient's idempotent GET requests —
// checkout, stats, task listing, checkpoint fetch, journal feed open.
// Derive a retrying client with HTTPClient.WithRetry; non-idempotent
// requests (checkin, register) are never retried. A Replicator waits
// its feed client's policy (RetryPolicy.Delay) between failed exchanges.
type RetryPolicy = transport.RetryPolicy

// StatsResponse is the body of the GET stats endpoints — the
// differentially private progress view (HTTPClient.Stats).
type StatsResponse = transport.StatsResponse

// HealthResponse is the body of GET /v1/healthz: overall status plus one
// row per hosted task, including follower replication state and lag
// (HTTPClient.Healthz).
type HealthResponse = transport.HealthResponse

// HealthTask is one task's row in a HealthResponse.
type HealthTask = transport.HealthTask

// ErrReadOnlyReplica is the sentinel behind the 409 a follower answers
// writes with (the client maps that status back to ErrStopped; handlers
// embedding the transport see this sentinel).
var ErrReadOnlyReplica = transport.ErrReadOnlyReplica

// LeaderHintError is the client-side image of a 409 that carried an
// X-Crowdml-Leader hint: the write hit a read-only follower (standalone,
// or the follower member owning the device in a sharded tier) and
// Leader names the base URL to retry against. It unwraps to both
// ErrReadOnlyReplica and ErrStopped.
type LeaderHintError = transport.LeaderHintError

// LeaderHint extracts the hinted leader base URL from an error returned
// by an HTTPClient write, when the server supplied one.
func LeaderHint(err error) (string, bool) { return transport.LeaderHint(err) }

// ShardedTask is a sharded logical learning task: N member leader tasks
// (each an ordinary durable task with its own WAL/checkpoint lineage,
// hosted under "{task}.shard-{k}") behind a routing front-end. Writes —
// checkin, register — go to the member owning the device (stable FNV
// hash of the device ID); merged reads — checkout, stats — serve a
// periodically rebuilt checkin-count-weighted average of the member
// parameter vectors, published through an atomic pointer so checkouts
// stay lock-free. Devices address the logical task ID over the same
// /v1/tasks/{id}/ routes as any task. Build with NewShardedTask; it
// also implements Transport for in-process devices.
type ShardedTask = shard.Group

// ShardOption configures NewShardedTask.
type ShardOption = shard.Option

// NewShardedTask creates the member tasks on the hub, mounts the
// routing front-end under taskID, and starts the merger. configure is
// called once per shard and must return a fresh ServerConfig each time
// (updaters are stateful). With WithShardStores, each member restores
// its own persisted lineage first — restarting a sharded deployment is
// calling NewShardedTask again with the same arguments. Shut down with
// ShardedTask.Close.
func NewShardedTask(ctx context.Context, h *Hub, taskID string, configure func(shard int) ServerConfig, opts ...ShardOption) (*ShardedTask, error) {
	return shard.New(ctx, h, taskID, configure, opts...)
}

// WithShards sets the shard count N (default 1).
func WithShards(n int) ShardOption { return shard.WithShards(n) }

// WithShardMergeInterval sets the merger cadence (default 100 ms).
// Merged checkouts trail the shard tier by at most one cadence plus one
// merge.
func WithShardMergeInterval(d time.Duration) ShardOption { return shard.WithMergeInterval(d) }

// WithShardStores makes every member durable: member k journals and
// checkpoints into root's store for "{task}.shard-{k}".
func WithShardStores(root StoreRoot) ShardOption { return shard.WithStores(root) }

// WithShardInfo sets the logical task's portal metadata; members derive
// theirs from it.
func WithShardInfo(info TaskInfo) ShardOption { return shard.WithInfo(info) }

// WithShardTaskOptions appends task options applied identically to
// every member (checkpoint policy, sync policy, retention, ...).
func WithShardTaskOptions(opts ...TaskOption) ShardOption { return shard.WithTaskOptions(opts...) }

// WithShardMemberTaskOptions supplies per-member task options — for
// knobs that must differ per shard, like each member's archive
// directory.
func WithShardMemberTaskOptions(f func(shard int, memberID string) []TaskOption) ShardOption {
	return shard.WithMemberTaskOptions(f)
}

// WithShardMetrics instruments the tier into reg: the router's sharding
// series (per-shard routed requests, merge latency and staleness) plus
// every member's ordinary per-task series.
func WithShardMetrics(reg *MetricsRegistry) ShardOption { return shard.WithMetrics(reg) }

// Progress is the public progress view of a hosted task — what every
// listing, stats body, health row and portal page renders. For a sharded
// task (ShardedTask.MergedStats) it is the merged view: Σ-of-shards
// iteration, all-shards-stopped flag, and estimates recomputed from
// summed raw counters.
type Progress = hub.Progress

// ShardHealth is one member's sub-row inside a sharded task's healthz
// entry (HealthTask.Shards).
type ShardHealth = transport.ShardHealth
