// Package crowdml is a Go implementation of Crowd-ML, the
// privacy-preserving machine-learning framework for crowds of smart
// devices of Hamm, Champion, Chen, Belkin and Xuan (ICDCS 2015,
// arXiv:1501.02484).
//
// Crowd-ML learns a shared classifier or predictor from data that never
// leaves the participating devices unsanitized: each device buffers its own
// sensor samples, computes a minibatch-averaged gradient locally, adds
// calibrated Laplace noise (local ε-differential privacy), and checks the
// noisy gradient in to a lightweight server that runs asynchronous
// stochastic gradient descent.
//
// # The v1 API: a context-first, multi-task Hub
//
// The public surface is organized around two ideas:
//
// First, one server process hosts many learning tasks. The paper's Web
// portal (Section V-A) lists multiple crowd-learning tasks that devices
// browse and join; Hub is that registry. Each task is an independent
// Server (Algorithm 2 instance) addressed by a stable ID; the registry
// is one table under one lock, taken only to look an ID up.
//
// Second, every method that does I/O or can block takes a
// context.Context as its first parameter and returns an error last —
// Server.Checkout/Checkin/RegisterDevice, Device.AddSample/Flush/Run,
// Transport implementations, and FileStore persistence all honor
// cancellation and deadlines.
//
// # Concurrency
//
// The server hot path is built for read-mostly traffic at portal scale
// (Section IV-B1: devices do the heavy lifting; the server's update is
// O(C·D)):
//
//   - Checkout and the statistics endpoints are lock-free: parameters are
//     served from a published snapshot behind an atomic pointer that a
//     reader pins with one CAS (and whose memory is recycled once it has
//     left the delta history and its last reader let go), crowd totals
//     are atomic counters, and device credentials live in one registry
//     table behind a read-write lock. Readers never wait on the parameter
//     lock.
//   - Checkins go through a batched applier: concurrent callers enqueue
//     their sanitized deltas into a bounded queue and a batch leader
//     applies up to 32 of them under a single parameter-lock
//     acquisition. Algorithm 2 semantics are preserved
//     delta by delta (per-checkin iteration number, η(t) step, staleness
//     accounting, ρ-stop evaluation); Checkin stays synchronous.
//   - ServerConfig.OnCommit runs OUTSIDE the parameter critical section:
//     the batch leader calls it once per applying batch, with the batch's
//     records in iteration order, after the updates are applied —
//     journaling never extends the lock hold or blocks reads (later
//     checkins queue behind a slow commit).
//
// # Durability and recovery
//
// Persistence is a pluggable Store (the MySQL role in the paper's
// prototype): atomic checkpoints of the learning state plus a
// segmented, append-only write-ahead checkin journal. One implementation
// ships, FileStore: a directory on disk (NewFileStore, flock-guarded) or
// in memory (NewMemStore, for tests and benchmarks), the same code over
// two file systems, and both pass one shared conformance suite.
// Durability is hub-managed:
//
//	st, _ := crowdml.NewFileStore("/var/lib/crowdml/activity")
//	task, _ := hub.CreateTask(ctx, "activity", cfg,
//	    crowdml.WithStore(st),
//	    crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{
//	        Every: time.Minute, AfterN: 1024,
//	    }),
//	    crowdml.WithSyncPolicy(crowdml.SyncBatch))
//	...
//	hub.Close(ctx) // final snapshot + journal close, every task
//
// Every applied checkin is journaled with its full sanitized content
// (gradient, counters, echoed checkout version) before the Checkin call
// returns, so recovery — load the latest checkpoint, then Server.Replay
// the journal tail — reconstructs the exact pre-crash iteration counter,
// parameters and totals: no acknowledged checkin is ever lost. Exact
// parameters hold for updaters that are pure functions of (w, ĝ, t),
// like the paper's SGD schedules, AND for stateful updaters
// implementing StateExporter's AppendState and ImportState (AdaGrad,
// Momentum): their internal state rides in every checkpoint and is
// handed back on restore. After a restart, OpenHub (or Hub.Restore)
// rebuilds every persisted task from a StoreRoot.
//
// The journal is segmented. After each successful snapshot, the
// asynchronous per-task checkpointer rotates the journal: the live
// segment is flushed, fsynced and sealed, and appends continue in a
// fresh one. Reads are streaming: Store.OpenCursor(ctx, afterIteration)
// returns a JournalCursor whose Next hands back one decoded entry at a
// time (io.EOF ends the stream), starting at the trailing segments a
// checkpoint at afterIteration does not cover — so restart TIME is
// bounded by checkpoint cadence instead of lifetime checkin volume, and
// restore/audit MEMORY is bounded by one entry instead of journal
// length (Server.Replay pulls the cursor record by record). Sealed
// segments are never rewritten; by default (KeepAll) they accumulate as
// the task's audit trail, and WithRetention automates the alternative:
// PruneCovered deletes — or ArchiveCovered(dir) moves aside — sealed
// segments the latest checkpoint fully covers, applied by the
// checkpointer only after a successful snapshot-and-rotate cycle, never
// to the live segment, so no policy can cost an acknowledged checkin.
// The hot path is untouched: journal appends, group-commit syncs,
// rotations and retention all run on the batch leader or the
// checkpointer, outside the parameter lock.
//
// SyncPolicy picks the crash model. SyncNone (default) hands each entry
// to the OS per append: acknowledged checkins survive a crash of the
// server process, but machine-level power loss can lose the newest
// entries. SyncBatch is group-commit fsync: the batch leader fsyncs
// once per applied batch, after the batch's appends and before any of
// its acknowledgments — power-loss durability at a cost amortized over
// the batch (an uncontended checkin is a batch of one: its fsync
// precedes its acknowledgment). See docs/OPERATIONS.md for tuning
// guidance.
//
// The ordering contract, per applied checkin at iteration t of a
// durable task: (1) the delta is applied in memory; (2) the batch's one
// OnCommit call — the hub's journal — appends t's record with the rest
// of the batch's, in iteration order; (3) under SyncBatch, the same call
// then fsyncs once for the whole batch; (4) the originating Checkin
// returns. Rotation never reorders any of this: it only decides which
// segment file step (2) appends to. The converse edge is at-least-once: a crash
// after the journal append but before the device saw the acknowledgment
// replays the checkin on recovery, and a device that retries it
// contributes that minibatch twice. The retry resends the same sanitized
// request — a Device sanitizes each minibatch once and holds the result
// until it is acknowledged — so no data is released twice, but the server
// applies the duplicate: deduplicating it is still to come (ROADMAP item
// 1b).
//
// A LIVE segment whose final record is torn by a crash mid-append is
// repaired on reopen (the record was never durable, so it was never
// acknowledged); a cursor surfaces the same case as ErrJournalTruncated
// in io.EOF's place, after yielding every valid entry. Sealed segments
// are fsynced at rotation and cannot be crash-torn, so damage there is
// refused rather than repaired. A second process cannot reach either
// state: FileStore.OpenJournal holds an advisory lock on the store
// directory until Close (ErrStoreLocked) — flock on unix, LockFileEx on
// Windows — and the kernel releases a dead holder's lock automatically. If a journal append or sync FAILS
// (disk full, I/O error), the task fail-stops: it stops accepting
// checkins — bounding the at-risk window to one batch — no later append
// is attempted (a success behind the hole would break replay
// contiguity), and Hub.Close reports the failure; its final checkpoint,
// if it succeeds, still captures the full in-memory state.
//
// A stop is learning state; a halt is not. Algorithm 2's stopping rule
// (Tmax, target error) and Server.Stop — what CloseTask calls — are
// exported with the state, so every checkpoint carries them and a
// restored task stays stopped. Server.Halt — what Hub.Close applies
// before its final checkpoint, and what a journal failure applies — only
// stops this process serving checkins: Stopped and checkout Done report
// it, no checkpoint records it, and a restored task resumes.
//
// # Replication
//
// The write-ahead journal doubles as a replication feed: the HTTP
// handler streams any stored task's journal as chunked binary frames
// (GET /v1/tasks/{id}/journal?after=N, read through a cursor so the
// leader holds one entry in memory per open feed) plus its latest
// checkpoint, and a follower process — a task created with AsReplicaOf
// plus a Replicator driving it — bootstraps from the checkpoint and
// tails the feed, applying each entry through the same deterministic
// Server.Replay crash recovery uses. Followers serve the read path
// (checkout, stats) bit-exactly at the replicated iteration, reject
// writes with ErrReadOnlyReplica (HTTP 409 + an X-Crowdml-Leader
// hint), vouch unknown device credentials against the leader via
// ServerConfig.AuthFallback (credentials never ride in the WAL), and
// recover from falling behind leader retention by re-bootstrapping.
// GET /v1/healthz reports each task's replica state and lag. See
// docs/REPLICATION.md.
//
// # Architecture
//
//	Hub     — named-task registry; CreateTask/Task/Resolve/Hosted/CloseTask;
//	          hub-managed durability (WithStore, OpenHub/Restore, Close).
//	Store   — pluggable persistence: checkpoints + segmented write-ahead
//	          checkin journal (rotation, group-commit fsync, streaming
//	          cursor reads, automated retention, audit trail); FileStore
//	          on disk or in memory, grouped under a StoreRoot.
//	Server  — Algorithm 2: authenticated checkout/checkin, SGD update
//	          w ← Π_W[w − η(t)·ĝ], progress counters, stopping criteria;
//	          lock-free checkout/stats, batched checkin application.
//	Device  — Algorithm 1: sample buffering (minibatch b, cap B), gradient
//	          computation, local sanitization once per minibatch, check-in
//	          with retry of the same sanitized request. The noise comes
//	          from crypto/rand unless DeviceConfig.Seed is set, which
//	          makes it a reproducible stream for simulations and tests.
//	Privacy — Eq. (10) gradient perturbation, Eqs. (11)–(12) count
//	          sanitization, ε = ε_g + ε_e + C·ε_yk composition.
//	Models  — multiclass logistic regression (Table I), linear SVM,
//	          ridge regression — anything with a bounded-sensitivity
//	          (sub)gradient fits the framework.
//	Replica — the follower runtime: Replicator bootstraps a read-only
//	          task from the leader's checkpoint and tails its journal
//	          feed, reconnecting on the feed client's RetryPolicy and
//	          re-bootstrapping on a retention gap.
//	HTTP    — task-scoped routes /v1/tasks/{id}/checkout|checkin|stats|
//	          register|journal|checkpoint plus a /v1/tasks listing and
//	          /v1/healthz. NewPortalIndex serves the human-facing
//	          multi-task portal.
//
// # Quick start
//
//	ctx := context.Background()
//	m := crowdml.NewLogisticRegression(3, 64)
//	hub := crowdml.NewHub()
//	task, _ := hub.CreateTask(ctx, "activity", crowdml.ServerConfig{
//		Model:   m,
//		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 10}, 0),
//	})
//	token, _ := task.Server().RegisterDevice(ctx, "phone-1")
//	device, _ := crowdml.NewDevice(crowdml.DeviceConfig{
//		ID: "phone-1", Token: token, Model: m,
//		Transport: task.Server(),
//		Minibatch: 1,
//		Budget:    crowdml.Budget{Gradient: crowdml.FromInv(0.1)},
//	})
//	_ = device.AddSample(ctx, crowdml.Sample{X: features, Y: label})
//
// Over HTTP, serve the hub with NewHTTPHandler and point devices at it
// with NewHTTPClient(baseURL, nil).WithTask("activity"); README.md lists
// the routes and docs/WIRE.md the wire formats.
//
// See examples/ for runnable programs (quickstart, smart thermostats,
// activity recognition, and a multi-task HTTP cluster). They are a module
// of their own that the go command forbids any internal/ import, so they
// build against this package alone; run them with
// `go -C examples run ./quickstart`. See the Example functions in this
// package's test files for the durability lifecycle, and
// cmd/crowdml-bench for the harness that regenerates every figure and
// ablation of the paper's evaluation.
// docs/ARCHITECTURE.md maps the layers and the durability state
// machine; docs/OPERATIONS.md is the operator's tuning guide.
package crowdml
