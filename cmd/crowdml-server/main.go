// Command crowdml-server runs a Crowd-ML learning server over HTTP — the
// central component of the paper's prototype (Section V-A, there an
// Apache/MySQL/Django deployment). One process hosts any number of
// crowd-learning tasks on a shared Hub and serves:
//
//   - /v1/tasks — the task listing (the portal index, as JSON);
//   - /v1/tasks/{id}/checkout, /v1/tasks/{id}/checkin — the device
//     protocol of Algorithm 2, per task;
//   - /v1/tasks/{id}/stats — progress statistics, composed from the
//     counters each device sanitizes on the device, at the ε it is
//     configured with;
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
//   - /portal/ — the public multi-task Web portal with live statistics.
//
// Without -tasks the server hosts one task, "default" (logreg, 3 classes,
// 64 features, rate 10), the one crowdml-device joins by default. A -tasks
// JSON file describes the hosted tasks instead:
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
// replay). A task's "syncPolicy" (none/batch; "batch" group-commits one
// fsync per applied batch for power-loss durability) and "retention"
// (keep/prune/archive: whether sealed segments the latest checkpoint
// covers accumulate as the audit trail, are deleted, or move to its
// "archiveDir") default to -sync and -retention. All of that is
// hub-managed — CreateTask(WithStore, WithCheckpointPolicy,
// WithSyncPolicy, WithRetention) on the way in, Hub.Close on the way out.
//
// With -follow <leader-url> (or a per-task "follow" field in the -tasks
// file), the process instead runs its tasks as read-only follower
// replicas: each bootstraps from the leader's latest checkpoint, tails
// the leader's journal feed (re-bootstrapping if leader retention pruned
// past its position), serves checkouts and stats locally — vouching
// unknown device credentials against the leader once, then caching them
// — and rejects writes with 409 plus an X-Crowdml-Leader hint.
//
// -dump-journal <dir> is a one-shot audit mode, not a serving option: it
// prints the journal segments under a task's store directory (or a
// retention archive) as one JSON object per line and exits.
// -dump-checkpoint <dir> does the same for the directory's checkpoint: one
// JSON document, the one releases before the checkpoint frame stored.
//
// Example: the tasks of activity.json, plus a read replica on another host:
//
//	crowdml-server -addr :8080 -tasks activity.json \
//	    -enroll-key join -state-dir /var/lib/crowdml
//	crowdml-server -addr :8081 -tasks activity.json \
//	    -follow http://leader.example:8080
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	crowdml "github.com/crowdml/crowdml"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "crowdml-server:", err)
		os.Exit(1)
	}
}

// errUsage marks a command line the flag set refused and has explained.
var errUsage = errors.New("usage")

// taskSpec is one task entry of the -tasks JSON file.
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
	// durability at amortized cost). Empty takes the -sync flag.
	SyncPolicy string `json:"syncPolicy"`
	// Retention selects the sealed-segment retention policy with
	// -state-dir: "keep" (default; sealed segments accumulate forever
	// as the audit trail), "prune" (delete segments the latest
	// checkpoint fully covers), or "archive" (move covered segments
	// into ArchiveDir — or <state-dir>/<task-id>/archive when unset —
	// keeping the audit trail out of the recovery path). Empty takes the
	// -retention flag.
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
}

// parseTasks decodes a -tasks file. A field the spec does not know is
// refused, not ignored: a misspelled "retenton" would otherwise mean
// "keep", and a field a release no longer reads ("shards") would start a
// different task than the file describes.
func parseTasks(payload []byte) ([]taskSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var specs []taskSpec
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("parse -tasks: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("parse -tasks: data after the task list")
	}
	if len(specs) == 0 {
		return nil, errors.New("-tasks file defines no tasks")
	}
	return specs, nil
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

// run is the command: it serves until ctx is cancelled, then drains and
// flushes every task. Messages go to stderr; -preregister tokens and the
// dump modes' output go to stdout.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crowdml-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address (port 0 binds a free port; the bound address is printed)")
		tasksFile  = fs.String("tasks", "", "JSON file describing the hosted tasks (default: one logreg 3×64 task \"default\")")
		enrollKey  = fs.String("enroll-key", "", "enrollment key; empty disables self-enrollment")
		devices    = fs.Int("preregister", 0, "pre-register this many devices on the first task and print their tokens")
		stateDir   = fs.String("state-dir", "", "durability directory, one store per task (empty disables persistence)")
		saveEvery  = fs.Duration("checkpoint-every", time.Minute, "asynchronous checkpoint interval with -state-dir")
		syncMode   = fs.String("sync", "none", "journal fsync policy with -state-dir: none or batch (group-commit per applied batch); a task's \"syncPolicy\" overrides it")
		retention  = fs.String("retention", "keep", "sealed-segment retention with -state-dir: keep, prune (delete checkpoint-covered segments), or archive (move them to the task's \"archiveDir\"); a task's \"retention\" overrides it")
		follow     = fs.String("follow", "", "run as a follower replica of the leader at this base URL (per-task override: the tasks file's \"follow\" field)")
		followPoll = fs.Duration("follow-poll", 250*time.Millisecond, "how often a caught-up follower re-polls the leader's journal feed")
		metricsOn  = fs.Bool("metrics", true, "instrument all layers and serve Prometheus telemetry on /v1/metrics")
		dumpDir    = fs.String("dump-journal", "", "print the journal under this task store (or archive) directory as one JSON object per line, oldest entry first, and exit")
		dumpCkpt   = fs.String("dump-checkpoint", "", "print the checkpoint under this task store directory as one JSON document (the pre-frame checkpoint.json) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	// What the command would not read is refused, not dropped.
	refused := fs.Args()
	if *dumpDir != "" && *dumpCkpt != "" {
		refused = append(refused, "-dump-checkpoint beside -dump-journal")
	}
	if len(refused) > 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", refused)
		fs.Usage()
		return fmt.Errorf("%w: unexpected arguments %q", errUsage, refused)
	}
	logf := log.New(stderr, "", log.LstdFlags).Printf

	if *dumpDir != "" {
		err := dumpJournal(ctx, stdout, *dumpDir)
		if errors.Is(err, crowdml.ErrJournalTruncated) {
			logf("journal ends in a torn record (a crash mid-append; never acknowledged): %v", err)
			return nil
		}
		return err
	}
	if *dumpCkpt != "" {
		return dumpCheckpoint(ctx, stdout, *dumpCkpt)
	}

	specs := []taskSpec{{ID: "default", Name: "Crowd-ML task", Model: "logreg", Classes: 3, Dim: 64, Rate: 10}}
	if *tasksFile != "" {
		payload, err := os.ReadFile(*tasksFile)
		if err != nil {
			return fmt.Errorf("read -tasks: %w", err)
		}
		if specs, err = parseTasks(payload); err != nil {
			return err
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
	for _, spec := range specs {
		spec.Follow = cmp.Or(spec.Follow, *follow)
		spec.SyncPolicy = cmp.Or(spec.SyncPolicy, *syncMode)
		spec.Retention = cmp.Or(spec.Retention, *retention)
		r, err := createTask(ctx, h, spec, *stateDir, *saveEvery, *followPoll, reg, logf)
		if err != nil {
			flushHub(h, logf)
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
	defer flushHub(h, logf)

	if *devices > 0 {
		if err := preregister(ctx, stdout, h, specs[0].ID, *devices); err != nil {
			return err
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/", crowdml.NewHTTPHandler(h, *enrollKey, reg))
	mux.Handle("/portal/", http.StripPrefix("/portal", crowdml.NewPortalIndex(h)))
	mux.Handle("/portal", http.RedirectHandler("/portal/", http.StatusMovedPermanently))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpServer := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()
	logf("crowdml-server: hosting %d task(s) on %s (portal at /portal/)", h.Len(), ln.Addr())
	for _, t := range h.Tasks() {
		logf("  task %s: %s", t.ID(), t.Info().Algorithm)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		logf("shutting down")
		// Drain in-flight HTTP requests (checkins applied during the drain
		// are journaled by their own requests), then flush every task's
		// durability under its OWN deadline — a slow client exhausting the
		// drain budget must not leave the final checkpoints to run (and
		// fail) against an already-dead context.
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := httpServer.Shutdown(drainCtx)
		flushHub(h, logf)
		return err
	}
}

// dumpJournal is the audit tool behind -dump-journal: it streams every
// entry of the journal segments in dir — a task's store directory, live
// or not, or a retention archive — through the store's own cursor and
// prints each as a JSON line, so the binary segments stay greppable and
// jq-able without a second reader of the format. A crash-torn live tail
// ends the dump with what came before it and ErrJournalTruncated (the
// torn record was never acknowledged).
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
	devices := make(map[string]crowdml.DeviceStats, len(cp.State.DeviceRows))
	for _, r := range cp.State.DeviceRows {
		devices[r.ID] = r.DeviceStats
	}
	cp.State.Devices, cp.State.DeviceRows = devices, nil
	return json.NewEncoder(out).Encode(cp)
}

// preregister enrolls n devices ("device-000", …) into the task id and
// prints each token. A follower's registry is not the one its leader
// authenticates writes against, so a token issued there would be refused
// wherever the device is sent to write: preregistering on a follower is
// an error that names the leader.
func preregister(ctx context.Context, out io.Writer, h *crowdml.Hub, id string, n int) error {
	task, ok := h.Task(id)
	if !ok {
		return fmt.Errorf("-preregister: task %q is not hosted", id)
	}
	if task.ReadOnly() {
		return fmt.Errorf("-preregister: task %s follows %s; register devices on the leader", id, task.LeaderURL())
	}
	for i := 0; i < n; i++ {
		dev := fmt.Sprintf("device-%03d", i)
		token, err := task.Server().RegisterDevice(ctx, dev)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "registered %s token=%s on task %s\n", dev, token, id)
	}
	return nil
}

// flushHub closes hub durability (final checkpoint + journal close per
// task) under its own fresh deadline, logging each task's flush error
// instead of dropping it.
func flushHub(h *crowdml.Hub, logf func(string, ...any)) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := h.Close(ctx)
	if err == nil {
		return
	}
	// Hub.Close joins one error per failing task; log them one line each.
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			logf("durability flush: %v", e)
		}
		return
	}
	logf("durability flush: %v", err)
}

// specConfig builds one task's server configuration and portal info
// from its spec.
func specConfig(spec taskSpec) (crowdml.ServerConfig, crowdml.TaskInfo, error) {
	var info crowdml.TaskInfo
	// Validate the ID before it is used as an on-disk directory name —
	// hub.CreateTask would reject it too, but only after the state dir
	// had been created at a possibly escaped path.
	if !crowdml.ValidTaskID(spec.ID) {
		return crowdml.ServerConfig{}, info, fmt.Errorf("task %q: %w", spec.ID, crowdml.ErrBadTaskID)
	}
	spec.Rate = cmp.Or(spec.Rate, 10)
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
	info = crowdml.TaskInfo{
		Name:       cmp.Or(spec.Name, spec.ID),
		Objective:  cmp.Or(spec.Objective, "Collectively learn a shared classifier from device data."),
		SensorData: cmp.Or(spec.SensorData, "Device-local features; a device sends gradients and counters, never samples, sanitized on the device at the ε it is configured with."),
		Labels:     labels,
		Algorithm:  fmt.Sprintf("%s via distributed SGD (η(t)=%g/√t)", m.Name(), spec.Rate),
	}
	return cfg, info, nil
}

// createTask builds one task from its spec and registers it on the hub;
// with a state directory the task is durable (write-ahead journal +
// asynchronous checkpoints) and resumes any persisted state. A spec with
// a Follow URL instead becomes a read-only follower replica; the
// returned Replicator (nil for leader tasks) is ready to Start. A
// non-nil reg instruments the task (core hot paths, durability, and —
// for followers — the replication loop) into the shared registry.
func createTask(ctx context.Context, h *crowdml.Hub, spec taskSpec, stateDir string, saveEvery, followPoll time.Duration, reg *crowdml.MetricsRegistry, logf func(string, ...any)) (*crowdml.Replicator, error) {
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
			logf("task %s: follower of %s; -state-dir ignored", spec.ID, spec.Follow)
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
			Logf:         logf,
			Metrics:      reg,
		})
		if err != nil {
			return nil, err
		}
		logf("task %s: following %s", spec.ID, spec.Follow)
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
		ret, err := parseRetention(spec.Retention, cmp.Or(spec.ArchiveDir, filepath.Join(stateDir, spec.ID, "archive")))
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
			logf("task %s: resumed at iteration %d", spec.ID, task.Server().Iteration())
		} else {
			logf("task %s: no persisted state; starting fresh", spec.ID)
		}
	}
	return nil, nil
}
