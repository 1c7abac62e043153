// Command crowdml-server runs a Crowd-ML learning server over HTTP — the
// central component of the paper's prototype (Section V-A, there an
// Apache/MySQL/Django deployment). One process hosts any number of
// crowd-learning tasks on a shared Hub and serves:
//
//   - /v1/tasks — the task listing (the portal index, as JSON);
//   - /v1/tasks/{id}/checkout, /v1/tasks/{id}/checkin — the device
//     protocol of Algorithm 2, per task;
//   - /v1/tasks/{id}/stats — differentially private progress statistics;
//   - /v1/tasks/{id}/register — device enrollment, guarded by -enroll-key;
//   - /v1/tasks/{id}/journal, /v1/tasks/{id}/checkpoint — the WAL-
//     shipping replication feed (and remote-audit endpoint) of a durable
//     task: the streamed journal plus the latest bootstrap checkpoint;
//   - /v1/healthz — per-task readiness, including follower replication
//     state and lag;
//   - /v1/metrics — operational telemetry in Prometheus text format
//     (checkin/checkout throughput and latency, journal and checkpoint
//     durability counters, per-route HTTP totals, replica lag);
//     -metrics=false disables the instrumentation and the endpoint;
//   - /portal/ — the public multi-task Web portal with live DP statistics.
//
// Tasks come either from the single-task flags (-classes, -dim, …) or
// from a -tasks JSON file hosting many at once:
//
//	[
//	  {"id": "activity", "name": "Activity recognition", "model": "logreg",
//	   "classes": 3, "dim": 64, "rate": 10, "labels": ["still","walking","vehicle"]},
//	  {"id": "gestures", "model": "svm", "classes": 5, "dim": 32, "rate": 5}
//	]
//
// With -state-dir, every task is durable (the MySQL role in the original
// prototype): each applied checkin is write-ahead journaled into the
// task's subdirectory before it is acknowledged, the hub checkpoints
// asynchronously every -checkpoint-every — rotating the journal onto a
// fresh segment after each snapshot, so restarts replay only the live
// tail — and a restarted server resumes each task on the exact
// pre-crash iteration and parameters (latest checkpoint + journal-tail
// replay). -sync picks the journal fsync policy (none/batch; "batch"
// group-commits one fsync per applied batch for power-loss durability),
// and -retention (keep/prune/archive, JSON "retention")
// decides whether sealed journal segments the latest checkpoint covers
// accumulate as the audit trail, are deleted, or are moved aside to
// -archive-dir. All of that is hub-managed — CreateTask(WithStore,
// WithCheckpointPolicy, WithSyncPolicy, WithRetention) on the way in,
// Hub.Close on the way out.
//
// With -follow <leader-url> (or a per-task "follow" field in the -tasks
// file), the process instead runs its tasks as read-only follower
// replicas: each bootstraps from the leader's latest checkpoint, tails
// the leader's journal feed (re-bootstrapping if leader retention pruned
// past its position), serves checkouts and stats locally — vouching
// unknown device credentials against the leader once, then caching them
// — and rejects writes with 409 plus an X-Crowdml-Leader hint.
//
// With -shards N (or a per-task "shards" field), a task is split across
// N member leader tasks ("{id}.shard-{k}", each durable in its own
// per-member store under -state-dir) behind a routing front-end mounted
// at the logical ID: writes go to the member owning the device (stable
// hash of the device ID), merged checkouts and stats serve a
// periodically rebuilt checkin-count-weighted average ("mergeEveryMs" /
// -merge-every tunes the cadence). Devices use the same
// /v1/tasks/{id}/ routes either way; /v1/healthz reports one aggregated
// row with per-shard sub-rows. See docs/SHARDING.md.
//
// -dump-journal <dir> is a one-shot audit mode, not a serving option: it
// prints the journal segments under a task's store directory (or a
// retention archive) as one JSON object per line and exits.
// -dump-checkpoint <dir> does the same for the directory's checkpoint: one
// JSON document, the one releases before the checkpoint frame stored.
//
// Example: a 3-class activity-recognition task over 64-bin FFT features,
// plus a read replica on another host:
//
//	crowdml-server -addr :8080 -classes 3 -dim 64 -rate 10 \
//	    -enroll-key join -state-dir /var/lib/crowdml
//	crowdml-server -addr :8081 -classes 3 -dim 64 \
//	    -follow http://leader.example:8080
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	crowdml "github.com/crowdml/crowdml"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// taskSpec is one task entry of the -tasks JSON file (also synthesized
// from the single-task flags when -tasks is not given).
type taskSpec struct {
	ID          string   `json:"id"`
	Name        string   `json:"name"`
	Model       string   `json:"model"` // logreg (default) or svm
	Classes     int      `json:"classes"`
	Dim         int      `json:"dim"`
	Rate        float64  `json:"rate"`   // c in η(t)=c/√t; default 10
	Radius      float64  `json:"radius"` // projection-ball radius (0 off)
	Tmax        int      `json:"tmax"`
	TargetError float64  `json:"targetError"`
	Labels      []string `json:"labels"`
	Objective   string   `json:"objective"`
	SensorData  string   `json:"sensorData"`
	// CheckpointAfterN adds a count trigger to the task's checkpoint
	// policy: snapshot once this many checkins accumulated since the
	// last one (0 = timer only).
	CheckpointAfterN int `json:"checkpointAfterN"`
	// SyncPolicy selects the journal fsync policy with -state-dir:
	// "none" (default; OS-flushed, process-crash durability) or "batch"
	// (group-commit fsync once per applied batch — power-loss
	// durability at amortized cost).
	SyncPolicy string `json:"syncPolicy"`
	// Retention selects the sealed-segment retention policy with
	// -state-dir: "keep" (default; sealed segments accumulate forever
	// as the audit trail), "prune" (delete segments the latest
	// checkpoint fully covers), or "archive" (move covered segments
	// into ArchiveDir — or <state-dir>/<task-id>/archive when unset —
	// keeping the audit trail out of the recovery path).
	Retention string `json:"retention"`
	// ArchiveDir overrides where "archive" retention moves this task's
	// covered segments.
	ArchiveDir string `json:"archiveDir"`
	// Follow turns this task into a read-only follower replica of the
	// same task ID on the leader at this base URL: it bootstraps from the
	// leader's checkpoint, tails the leader's journal feed, serves
	// checkouts and stats locally, and rejects writes with a leader hint.
	// The -follow flag supplies a process-wide default. Follower tasks
	// are never durable locally (a dead follower re-bootstraps from its
	// leader), so -state-dir is ignored for them.
	Follow string `json:"follow"`
	// Shards splits the task across this many member leader tasks
	// ("{id}.shard-{k}", each with its own WAL/checkpoint lineage under
	// -state-dir) behind a routing front-end: writes go to the member
	// owning the device, merged reads are served from a periodically
	// rebuilt weighted average. 0 (the default) hosts a plain
	// single-leader task. Incompatible with "follow".
	Shards int `json:"shards"`
	// MergeEveryMs sets a sharded task's merger cadence in milliseconds
	// (0 = the library default).
	MergeEveryMs int `json:"mergeEveryMs"`
	// mergeEvery carries the -merge-every flag at full resolution for the
	// single-task path (unexported: the JSON path uses the millisecond
	// field above).
	mergeEvery time.Duration
}

// parseSyncPolicy maps the -sync flag / syncPolicy JSON field onto a
// crowdml.SyncPolicy.
func parseSyncPolicy(s string) (crowdml.SyncPolicy, error) {
	switch s {
	case "", "none":
		return crowdml.SyncNone, nil
	case "batch":
		return crowdml.SyncBatch, nil
	}
	return crowdml.SyncNone, fmt.Errorf("unknown sync policy %q (want none or batch)", s)
}

// parseRetention maps the -retention flag / retention JSON field onto a
// crowdml.RetentionPolicy. archiveDir is the task's resolved archive
// destination, used only by the "archive" mode.
func parseRetention(s, archiveDir string) (crowdml.RetentionPolicy, error) {
	switch s {
	case "", "keep":
		return crowdml.KeepAll, nil
	case "prune":
		return crowdml.PruneCovered, nil
	case "archive":
		return crowdml.ArchiveCovered(archiveDir), nil
	}
	return crowdml.KeepAll, fmt.Errorf("unknown retention policy %q (want keep, prune or archive)", s)
}

// mergeInterval resolves the sharded merger cadence, preferring the
// full-resolution flag value over the integer-millisecond JSON field so
// a sub-millisecond flag is not truncated to zero (0 lets the library
// default apply).
func (s taskSpec) mergeInterval() time.Duration {
	if s.mergeEvery > 0 {
		return s.mergeEvery
	}
	return time.Duration(s.MergeEveryMs) * time.Millisecond
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		tasksFile  = flag.String("tasks", "", "JSON file describing the hosted tasks (overrides the single-task flags)")
		taskID     = flag.String("task", "default", "task ID for the single-task flags")
		classes    = flag.Int("classes", 3, "number of classes C")
		dim        = flag.Int("dim", 64, "feature dimensionality D")
		modelName  = flag.String("model", "logreg", "model: logreg or svm")
		rate       = flag.Float64("rate", 10, "learning-rate constant c in η(t)=c/√t")
		radius     = flag.Float64("radius", 0, "projection-ball radius R (0 disables)")
		tmax       = flag.Int("tmax", 0, "maximum iterations Tmax (0 = unbounded)")
		rho        = flag.Float64("target-error", 0, "stop when error estimate ≤ ρ (0 disables)")
		enrollKey  = flag.String("enroll-key", "", "enrollment key; empty disables self-enrollment")
		devices    = flag.Int("preregister", 0, "pre-register this many devices on the first task and print their tokens")
		stateDir   = flag.String("state-dir", "", "durability directory, one store per task (empty disables persistence)")
		saveEvery  = flag.Duration("checkpoint-every", time.Minute, "asynchronous checkpoint interval with -state-dir")
		syncMode   = flag.String("sync", "none", "journal fsync policy with -state-dir: none or batch (group-commit per applied batch)")
		retention  = flag.String("retention", "keep", "sealed-segment retention with -state-dir: keep, prune (delete checkpoint-covered segments), or archive (move them to -archive-dir)")
		archiveDir = flag.String("archive-dir", "", "where -retention archive moves covered segments (default <state-dir>/<task-id>/archive)")
		taskName   = flag.String("task-name", "Crowd-ML task", "task name shown on the portal (single-task flags)")
		taskLabels = flag.String("task-labels", "", "comma-separated class names for the portal (single-task flags)")

		follow     = flag.String("follow", "", "run as a follower replica of the leader at this base URL (per-task override: the tasks file's \"follow\" field)")
		followPoll = flag.Duration("follow-poll", 250*time.Millisecond, "how often a caught-up follower re-polls the leader's journal feed")

		shards     = flag.Int("shards", 0, "split the single-task-flags task across this many member leaders behind a routing front-end (0 = plain task; per-task: the tasks file's \"shards\" field)")
		mergeEvery = flag.Duration("merge-every", 0, "sharded merger cadence (0 = library default; per-task: \"mergeEveryMs\")")

		metricsOn = flag.Bool("metrics", true, "instrument all layers and serve Prometheus telemetry on /v1/metrics")

		dumpDir  = flag.String("dump-journal", "", "print the journal under this task store (or archive) directory as one JSON object per line, oldest entry first, and exit")
		dumpCkpt = flag.String("dump-checkpoint", "", "print the checkpoint under this task store directory as one JSON document (the pre-frame checkpoint.json) and exit")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *dumpDir != "" {
		return dumpJournal(ctx, os.Stdout, *dumpDir)
	}
	if *dumpCkpt != "" {
		return dumpCheckpoint(ctx, os.Stdout, *dumpCkpt)
	}

	specs := []taskSpec{{
		ID: *taskID, Name: *taskName, Model: *modelName,
		Classes: *classes, Dim: *dim, Rate: *rate, Radius: *radius,
		Tmax: *tmax, TargetError: *rho, SyncPolicy: *syncMode,
		Retention: *retention, ArchiveDir: *archiveDir,
		Shards: *shards, mergeEvery: *mergeEvery,
	}}
	if *taskLabels != "" {
		specs[0].Labels = strings.Split(*taskLabels, ",")
	}
	if *tasksFile != "" {
		payload, err := os.ReadFile(*tasksFile)
		if err != nil {
			return fmt.Errorf("read -tasks: %w", err)
		}
		// Fresh slice: Unmarshal into the flag-built one would leak the
		// flag defaults into JSON entries that omit those fields.
		specs = nil
		if err := json.Unmarshal(payload, &specs); err != nil {
			return fmt.Errorf("parse -tasks: %w", err)
		}
		if len(specs) == 0 {
			return errors.New("-tasks file defines no tasks")
		}
	}

	h := crowdml.NewHub()
	// One registry spans every task and layer; nil (with -metrics=false)
	// switches all instrumentation off at a single-branch cost per op.
	var reg *crowdml.MetricsRegistry
	if *metricsOn {
		reg = crowdml.NewMetricsRegistry()
	}
	var replicators []*crowdml.Replicator
	// Follower shutdown: stop every replication loop before durability is
	// flushed, whatever path run() exits through.
	defer func() {
		for _, r := range replicators {
			r.Stop()
		}
	}()
	var groups []*crowdml.ShardedTask
	// Sharded shutdown: stop every merger goroutine; the members flush
	// like any durable task when the hub closes.
	defer func() {
		for _, g := range groups {
			g.Stop()
		}
	}()
	for _, spec := range specs {
		if spec.Follow == "" {
			spec.Follow = *follow
		}
		if spec.Shards > 0 {
			g, err := createShardedTask(ctx, h, spec, *stateDir, *saveEvery, reg)
			if err != nil {
				flushHub(h)
				return err
			}
			groups = append(groups, g)
			continue
		}
		r, err := createTask(ctx, h, spec, *stateDir, *saveEvery, *followPoll, reg)
		if err != nil {
			flushHub(h)
			return err
		}
		if r != nil {
			r.Start(ctx)
			replicators = append(replicators, r)
		}
	}
	// Durability shutdown: flush a final checkpoint and close the journal
	// for every task, whatever path run() exits through. The normal path
	// flushes explicitly (inside the shutdown deadline) first; this defer
	// then finds everything already closed and is a no-op.
	defer flushHub(h)

	// -preregister enrolls into the first task defined.
	for i := 0; i < *devices; i++ {
		id := fmt.Sprintf("device-%03d", i)
		if specs[0].Shards > 0 {
			// The router places the credential on the device's owning shard.
			g := groups[0]
			token, err := g.Register(ctx, id)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stdout, "registered %s token=%s on task %s (shard %s)\n",
				id, token, g.LogicalID(), g.Owner(id).ID())
			continue
		}
		task, ok := h.Task(specs[0].ID)
		if !ok {
			return fmt.Errorf("-preregister: task %q is not hosted", specs[0].ID)
		}
		token, err := task.Server().RegisterDevice(ctx, id)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "registered %s token=%s on task %s\n", id, token, task.ID())
	}

	mux := http.NewServeMux()
	mux.Handle("/", crowdml.NewHTTPHandler(h, *enrollKey, reg))
	mux.Handle("/portal/", http.StripPrefix("/portal", crowdml.NewPortalIndex(h)))
	mux.Handle("/portal", http.RedirectHandler("/portal/", http.StatusMovedPermanently))

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.ListenAndServe() }()
	log.Printf("crowdml-server: hosting %d task(s) on %s (portal at /portal/)", h.Len(), *addr)
	for _, t := range h.Tasks() {
		log.Printf("  task %s: %s", t.ID(), t.Info().Algorithm)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		log.Printf("shutting down")
		// Drain in-flight HTTP requests (checkins applied during the drain
		// are journaled by their own requests), then flush every task's
		// durability under its OWN deadline — a slow client exhausting the
		// drain budget must not leave the final checkpoints to run (and
		// fail) against an already-dead context.
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := httpServer.Shutdown(drainCtx)
		flushHub(h)
		return err
	}
}

// dumpJournal is the audit tool behind -dump-journal: it streams every
// entry of the journal segments in dir — a task's store directory, live
// or not, or a retention archive — through the store's own cursor and
// prints each as a JSON line, so the binary segments stay greppable and
// jq-able without a second reader of the format. A crash-torn live tail
// ends the dump cleanly (the torn record was never acknowledged).
func dumpJournal(ctx context.Context, out io.Writer, dir string) error {
	if _, err := os.Stat(dir); err != nil {
		return fmt.Errorf("-dump-journal: %w", err)
	}
	st, err := crowdml.NewFileStore(dir)
	if err != nil {
		return err
	}
	cur, err := st.OpenCursor(ctx, 0)
	if err != nil {
		return err
	}
	defer cur.Close()
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	for {
		e, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return w.Flush()
		}
		if errors.Is(err, crowdml.ErrJournalTruncated) {
			log.Printf("journal ends in a torn record (a crash mid-append; never acknowledged): %v", err)
			return w.Flush()
		}
		if err != nil {
			_ = w.Flush() // what was read is still worth having; err is the one reported
			return err
		}
		if err := enc.Encode(&e); err != nil {
			return err
		}
	}
}

// dumpCheckpoint is the audit tool behind -dump-checkpoint: it prints the
// checkpoint in dir — a binary frame at rest — as the JSON document
// releases before the frame kept in checkpoint.json, byte for byte what
// they would have written for the same state. That makes it the rollback
// path too: those releases read the output as their checkpoint.
func dumpCheckpoint(ctx context.Context, out io.Writer, dir string) error {
	if _, err := os.Stat(dir); err != nil {
		return fmt.Errorf("-dump-checkpoint: %w", err)
	}
	st, err := crowdml.NewFileStore(dir)
	if err != nil {
		return err
	}
	cp, err := st.Load(ctx)
	if err != nil {
		return fmt.Errorf("-dump-checkpoint %s: %w", dir, err)
	}
	return json.NewEncoder(out).Encode(cp)
}

// flushHub closes hub durability (final checkpoint + journal close per
// task) under its own fresh deadline, logging each task's flush error
// instead of dropping it.
func flushHub(h *crowdml.Hub) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := h.Close(ctx)
	if err == nil {
		return
	}
	// Hub.Close joins one error per failing task; log them one line each.
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			log.Printf("durability flush: %v", e)
		}
		return
	}
	log.Printf("durability flush: %v", err)
}

// specConfig builds one task's server configuration and portal info
// from its spec. Every call returns a FRESH config — updaters are
// stateful, so the sharded path calls this once per member.
func specConfig(spec taskSpec) (crowdml.ServerConfig, crowdml.TaskInfo, error) {
	var info crowdml.TaskInfo
	// Validate the ID before it is used as an on-disk directory name —
	// hub.CreateTask would reject it too, but only after the state dir
	// had been created at a possibly escaped path.
	if !crowdml.ValidTaskID(spec.ID) {
		return crowdml.ServerConfig{}, info, fmt.Errorf("task %q: %w", spec.ID, crowdml.ErrBadTaskID)
	}
	if spec.Rate == 0 {
		spec.Rate = 10
	}
	if spec.Classes < 2 || spec.Dim < 1 {
		return crowdml.ServerConfig{}, info, fmt.Errorf("task %s: invalid shape classes=%d dim=%d (want classes ≥ 2, dim ≥ 1)",
			spec.ID, spec.Classes, spec.Dim)
	}
	var m crowdml.Model
	switch spec.Model {
	case "logreg", "":
		m = crowdml.NewLogisticRegression(spec.Classes, spec.Dim)
	case "svm":
		m = crowdml.NewLinearSVM(spec.Classes, spec.Dim)
	default:
		return crowdml.ServerConfig{}, info, fmt.Errorf("task %s: unknown model %q (want logreg or svm)", spec.ID, spec.Model)
	}
	cfg := crowdml.ServerConfig{
		Model:       m,
		Updater:     crowdml.NewSGD(crowdml.InvSqrt{C: spec.Rate}, spec.Radius),
		Tmax:        spec.Tmax,
		TargetError: spec.TargetError,
	}

	labels := spec.Labels
	if len(labels) == 0 {
		for k := 0; k < spec.Classes; k++ {
			labels = append(labels, fmt.Sprintf("class %d", k))
		}
	}
	name := spec.Name
	if name == "" {
		name = spec.ID
	}
	objective := spec.Objective
	if objective == "" {
		objective = "Collectively learn a shared classifier from device data with local differential privacy."
	}
	sensorData := spec.SensorData
	if sensorData == "" {
		sensorData = "Device-local features; only noise-sanitized gradients and counters ever leave a device."
	}
	info = crowdml.TaskInfo{
		Name:       name,
		Objective:  objective,
		SensorData: sensorData,
		Labels:     labels,
		Algorithm:  fmt.Sprintf("%s via privacy-preserving distributed SGD (η(t)=%g/√t)", m.Name(), spec.Rate),
	}
	return cfg, info, nil
}

// createShardedTask builds one sharded logical task: N member leaders
// ("{id}.shard-{k}") behind a routing front-end mounted under the
// spec's ID. With a state directory every member is durable in its own
// per-member store, so a restarted server resumes each shard's lineage.
func createShardedTask(ctx context.Context, h *crowdml.Hub, spec taskSpec, stateDir string, saveEvery time.Duration, reg *crowdml.MetricsRegistry) (*crowdml.ShardedTask, error) {
	if spec.Follow != "" {
		return nil, fmt.Errorf("task %s: a sharded task cannot follow a leader (replicate per member instead)", spec.ID)
	}
	// Validates the spec (and yields the shared portal info) before any
	// member exists.
	_, info, err := specConfig(spec)
	if err != nil {
		return nil, err
	}
	opts := []crowdml.ShardOption{
		crowdml.WithShards(spec.Shards),
		crowdml.WithShardInfo(info),
	}
	if d := spec.mergeInterval(); d > 0 {
		opts = append(opts, crowdml.WithShardMergeInterval(d))
	}
	if reg != nil {
		opts = append(opts, crowdml.WithShardMetrics(reg))
	}
	if stateDir != "" {
		sync, err := parseSyncPolicy(spec.SyncPolicy)
		if err != nil {
			return nil, fmt.Errorf("task %s: %w", spec.ID, err)
		}
		root, err := crowdml.NewFileRoot(stateDir)
		if err != nil {
			return nil, err
		}
		opts = append(opts,
			crowdml.WithShardStores(root),
			crowdml.WithShardTaskOptions(
				crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{
					Every:  saveEvery,
					AfterN: spec.CheckpointAfterN,
				}),
				crowdml.WithSyncPolicy(sync)))
		// Retention resolves per member: each archive destination lives
		// inside that member's own store directory.
		retSpec := spec
		opts = append(opts, crowdml.WithShardMemberTaskOptions(
			func(k int, memberID string) []crowdml.TaskOption {
				adir := retSpec.ArchiveDir
				if adir == "" {
					adir = filepath.Join(stateDir, memberID, "archive")
				} else {
					adir = filepath.Join(retSpec.ArchiveDir, memberID)
				}
				ret, err := parseRetention(retSpec.Retention, adir)
				if err != nil {
					// Surfaced below: an invalid mode fails the throwaway
					// parse too.
					ret = crowdml.KeepAll
				}
				return []crowdml.TaskOption{crowdml.WithRetention(ret)}
			}))
		if _, err := parseRetention(spec.Retention, ""); err != nil {
			return nil, fmt.Errorf("task %s: %w", spec.ID, err)
		}
	}
	g, err := crowdml.NewShardedTask(ctx, h, spec.ID, func(int) crowdml.ServerConfig {
		cfg, _, _ := specConfig(spec)
		return cfg
	}, opts...)
	if err != nil {
		return nil, err
	}
	resumed := 0
	for _, mt := range g.Members() {
		resumed += mt.Server().Iteration()
	}
	if stateDir != "" && resumed > 0 {
		log.Printf("task %s: %d shards resumed at merged iteration %d", spec.ID, spec.Shards, resumed)
	} else {
		log.Printf("task %s: sharded across %d member leaders", spec.ID, spec.Shards)
	}
	return g, nil
}

// createTask builds one task from its spec and registers it on the hub;
// with a state directory the task is durable (write-ahead journal +
// asynchronous checkpoints) and resumes any persisted state. A spec with
// a Follow URL instead becomes a read-only follower replica; the
// returned Replicator (nil for leader tasks) is ready to Start. A
// non-nil reg instruments the task (core hot paths, durability, and —
// for followers — the replication loop) into the shared registry.
func createTask(ctx context.Context, h *crowdml.Hub, spec taskSpec, stateDir string, saveEvery, followPoll time.Duration, reg *crowdml.MetricsRegistry) (*crowdml.Replicator, error) {
	cfg, info, err := specConfig(spec)
	if err != nil {
		return nil, err
	}
	opts := []crowdml.TaskOption{crowdml.WithTaskInfo(info)}
	if reg != nil {
		opts = append(opts, crowdml.WithMetrics(reg))
	}
	if spec.Follow != "" {
		// Follower replica: no local store (re-bootstrap covers a dead
		// follower), leader-vouched auth for devices checking out here,
		// and a replication runtime tailing the leader's journal feed.
		if stateDir != "" {
			log.Printf("task %s: follower of %s; -state-dir ignored", spec.ID, spec.Follow)
		}
		feed := crowdml.NewHTTPClient(spec.Follow, nil).
			WithTask(spec.ID).
			WithRetry(crowdml.RetryPolicy{})
		cfg.AuthFallback = feed.AuthProbe
		opts = append(opts, crowdml.AsReplicaOf(spec.Follow))
		task, err := h.CreateTask(ctx, spec.ID, cfg, opts...)
		if err != nil {
			return nil, err
		}
		r, err := crowdml.NewReplicator(crowdml.ReplicaConfig{
			Task:         task,
			Feed:         feed,
			PollInterval: followPoll,
			Logf:         log.Printf,
			Metrics:      reg,
		})
		if err != nil {
			return nil, err
		}
		log.Printf("task %s: following %s", spec.ID, spec.Follow)
		return r, nil
	}
	var fs *crowdml.FileStore
	if stateDir != "" {
		sync, err := parseSyncPolicy(spec.SyncPolicy)
		if err != nil {
			return nil, fmt.Errorf("task %s: %w", spec.ID, err)
		}
		// The default archive destination lives INSIDE the task's store
		// directory (Segments skips subdirectories), so archived history
		// travels with the store in backups without ever being mistaken
		// for another task by a root listing.
		adir := spec.ArchiveDir
		if adir == "" {
			adir = filepath.Join(stateDir, spec.ID, "archive")
		}
		ret, err := parseRetention(spec.Retention, adir)
		if err != nil {
			return nil, fmt.Errorf("task %s: %w", spec.ID, err)
		}
		fs, err = crowdml.NewFileStore(filepath.Join(stateDir, spec.ID))
		if err != nil {
			return nil, err
		}
		opts = append(opts,
			crowdml.WithStore(fs),
			crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{
				Every:  saveEvery,
				AfterN: spec.CheckpointAfterN,
			}),
			crowdml.WithSyncPolicy(sync),
			crowdml.WithRetention(ret))
	}
	task, err := h.CreateTask(ctx, spec.ID, cfg, opts...)
	if err != nil {
		return nil, err
	}
	if fs != nil {
		// Iteration alone can't tell "fresh" from "restored at iteration
		// 0" (a clean shutdown before any checkin still checkpoints); the
		// store's existence probe avoids re-decoding the checkpoint the
		// restore path just loaded.
		hasCP, _ := fs.HasCheckpoint(ctx)
		if hasCP || task.Server().Iteration() > 0 {
			log.Printf("task %s: resumed at iteration %d", spec.ID, task.Server().Iteration())
		} else {
			log.Printf("task %s: no persisted state; starting fresh", spec.ID)
		}
	}
	return nil, nil
}
