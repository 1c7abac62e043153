package hub

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
)

// readAll drains a store's full journal through its streaming cursor —
// the test-only slice wrapper (production code never materializes the
// journal).
func readAll(st store.Store) ([]store.JournalEntry, error) {
	cur, err := st.OpenCursor(context.Background(), 0)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out []store.JournalEntry
	for {
		e, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// checkinN drives n deterministic checkins from one registered device.
func checkinN(t *testing.T, srv *core.Server, deviceID string, n int) {
	t.Helper()
	ctx := context.Background()
	token, err := srv.RegisterDevice(ctx, deviceID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		co, err := srv.Checkout(ctx, deviceID, token)
		if err != nil {
			t.Fatal(err)
		}
		req := &core.CheckinRequest{
			Grad:        []float64{float64(i + 1), 0.5, -0.25, 1},
			NumSamples:  2,
			ErrCount:    i % 2,
			LabelCounts: []int{1, 1},
			Version:     co.Version,
		}
		if err := srv.Checkin(ctx, deviceID, token, req); err != nil {
			t.Fatal(err)
		}
	}
}

// segmentCount reports the number of journal segments, sealed and live.
func segmentCount(t *testing.T, st interface {
	Segments(context.Context) ([]store.SegmentInfo, error)
}) int {
	t.Helper()
	segs, err := st.Segments(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

// stateWithoutDeviceSecrets compares everything recovery must reproduce.
func assertStatesEqual(t *testing.T, got, want *core.ServerState) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored state diverges:\n got: %+v\nwant: %+v", got, want)
	}
}

func TestDurableTaskJournalsEveryCheckin(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	checkinN(t, task.Server(), "d1", 7)
	entries, err := readAll(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7 {
		t.Fatalf("%d journal entries for 7 acknowledged checkins", len(entries))
	}
	for i, e := range entries {
		if e.Iteration != i+1 || e.DeviceID != "d1" || len(e.Grad) == 0 {
			t.Errorf("entry %d = %+v", i, e)
		}
	}
	if task.Store() != st {
		t.Error("Task.Store should return the attached store")
	}
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryFromJournalOnly drops the hub with NO checkpoint ever
// written: recovery must rebuild the full state from the journal alone.
func TestCrashRecoveryFromJournalOnly(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	h := New()
	// A policy that never fires during the test: no timer tick this
	// century, no count trigger reached.
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{Every: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	checkinN(t, task.Server(), "d1", 5)
	want := task.Server().ExportState()
	if _, err := st.Load(ctx); !errors.Is(err, store.ErrNoCheckpoint) {
		t.Fatalf("premature checkpoint: %v", err)
	}
	// Crash: the hub is dropped without Close. Reopen from the store.
	h2 := New()
	restored, err := h2.CreateTask(ctx, "t", serverConfig(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	assertStatesEqual(t, restored.Server().ExportState(), want)
	if err := h2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoverySnapshotPlusTail checkpoints mid-stream, keeps
// checking in, then crashes: recovery = snapshot + journal-tail replay.
func TestCrashRecoverySnapshotPlusTail(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{Every: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	checkinN(t, task.Server(), "d1", 4)
	// Force a mid-run snapshot the way the checkpointer would write it.
	if err := st.Save(ctx, task.Server().ExportState(), time.Now()); err != nil {
		t.Fatal(err)
	}
	checkinN(t, task.Server(), "d2", 3) // the tail beyond the snapshot
	want := task.Server().ExportState()

	h2 := New()
	restored, err := h2.CreateTask(ctx, "t", serverConfig(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Server().ExportState()
	assertStatesEqual(t, got, want)
	if got.Iteration != 7 {
		t.Errorf("iteration = %d, want 7", got.Iteration)
	}
	if err := h2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRestartRefusesLegacyJSONCheckpoint: a store directory whose
// checkpoint is still the checkpoint.json of a release before the
// checkpoint frame (the store package's golden document) is refused by
// CreateTask and by Restore with ErrLegacyJournal, and nothing is written
// into it: the upgrade goes through a release that reads the document and
// replaces it (docs/OPERATIONS.md).
func TestRestartRefusesLegacyJSONCheckpoint(t *testing.T) {
	ctx := context.Background()
	legacy, err := os.ReadFile(filepath.Join("..", "store", "testdata", "golden", "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	root, err := store.NewFileRoot(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root.Dir(), "t")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := store.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().CreateTask(ctx, "t", serverConfig(), WithStore(fs)); !errors.Is(err, store.ErrLegacyJournal) {
		t.Errorf("CreateTask over checkpoint.json = %v, want ErrLegacyJournal", err)
	}
	configure := func(string) (core.ServerConfig, []TaskOption, error) { return serverConfig(), nil, nil }
	if _, err := New().Restore(ctx, root, configure); !errors.Is(err, store.ErrLegacyJournal) {
		t.Errorf("Restore over checkpoint.json = %v, want ErrLegacyJournal", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "checkpoint.json" && e.Name() != "LOCK" {
			t.Errorf("the refused directory gained %s", e.Name())
		}
	}
	if got, err := os.ReadFile(filepath.Join(dir, "checkpoint.json")); err != nil || string(got) != string(legacy) {
		t.Errorf("checkpoint.json changed: %v", err)
	}
}

// TestCheckpointPolicyAfterN: the count trigger must produce an
// asynchronous snapshot without any Close.
func TestCheckpointPolicyAfterN(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{AfterN: 3}))
	if err != nil {
		t.Fatal(err)
	}
	checkinN(t, task.Server(), "d1", 3)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := st.Load(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("AfterN trigger never produced a checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestHubCloseFlushesFinalSnapshot: Close must leave a checkpoint at the
// exact final state for every durable task, and be idempotent.
func TestHubCloseFlushesFinalSnapshot(t *testing.T) {
	ctx := context.Background()
	root := store.NewMemRoot()
	h := New()
	for i := 0; i < 3; i++ {
		st, _ := root.Open(ctx, fmt.Sprintf("task-%d", i))
		task, err := h.CreateTask(ctx, fmt.Sprintf("task-%d", i), serverConfig(), WithStore(st),
			WithCheckpointPolicy(CheckpointPolicy{Every: time.Hour}))
		if err != nil {
			t.Fatal(err)
		}
		checkinN(t, task.Server(), "d1", i+1)
	}
	if err := h.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < 3; i++ {
		st, _ := root.Open(ctx, fmt.Sprintf("task-%d", i))
		cp, err := st.Load(ctx)
		if err != nil {
			t.Fatalf("task-%d: %v", i, err)
		}
		if cp.State.Iteration != i+1 {
			t.Errorf("task-%d checkpoint iteration = %d, want %d", i, cp.State.Iteration, i+1)
		}
	}
	if err := h.Close(ctx); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestCloseStopsServerWithoutPersistingStop: after Hub.Close no checkin
// can be acknowledged past the final snapshot (the server is stopped),
// but the stop is shutdown mechanics — a task restored from the same
// store resumes accepting checkins.
func TestCloseStopsServerWithoutPersistingStop(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	srv := task.Server()
	token, err := srv.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	checkinN(t, srv, "d2", 1)
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
	req := &core.CheckinRequest{Grad: []float64{1, 0, 0, 1}, NumSamples: 1, LabelCounts: []int{1, 0}}
	if err := srv.Checkin(ctx, "d1", token, req); !errors.Is(err, core.ErrStopped) {
		t.Errorf("post-Close checkin error = %v, want ErrStopped (nothing may be acked past the final snapshot)", err)
	}
	cp, err := st.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cp.State.Stopped {
		t.Error("shutdown stop must not be persisted as learning state")
	}
	h2 := New()
	restored, err := h2.CreateTask(ctx, "t", serverConfig(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	checkinN(t, restored.Server(), "d3", 1) // resumes accepting checkins
	if restored.Server().Iteration() != 2 {
		t.Errorf("restored iteration = %d, want 2", restored.Server().Iteration())
	}
	if err := h2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCloseTaskFlushes: closing one task flushes its durability.
func TestCloseTaskFlushes(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{Every: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	checkinN(t, task.Server(), "d1", 2)
	if err := h.CloseTask(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	cp, err := st.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cp.State.Iteration != 2 {
		t.Errorf("flushed iteration = %d, want 2", cp.State.Iteration)
	}
}

// TestRestoreReconstructsAllTasks exercises the whole-process restart
// path: Restore lists the root and rebuilds every task, honoring
// ErrSkipTask.
func TestRestoreReconstructsAllTasks(t *testing.T) {
	ctx := context.Background()
	root := store.NewMemRoot()
	h := New()
	wants := map[string]*core.ServerState{}
	for _, id := range []string{"alpha", "beta", "gamma"} {
		st, _ := root.Open(ctx, id)
		task, err := h.CreateTask(ctx, id, serverConfig(), WithStore(st))
		if err != nil {
			t.Fatal(err)
		}
		checkinN(t, task.Server(), "d-"+id, len(id))
		wants[id] = task.Server().ExportState()
	}
	// A stray non-task name in the root (a lost+found, a backup copy)
	// must be skipped, not abort the restore.
	if _, err := root.Open(ctx, "lost+found"); err != nil {
		t.Fatal(err)
	}
	// Crash without Close; restore onto a fresh hub, skipping one task.
	h2 := New()
	tasks, err := h2.Restore(ctx, root, func(taskID string) (core.ServerConfig, []TaskOption, error) {
		if taskID == "beta" {
			return core.ServerConfig{}, nil, ErrSkipTask
		}
		return serverConfig(), []TaskOption{WithInfo(TaskInfo{Objective: "restored " + taskID})}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || h2.Len() != 2 {
		t.Fatalf("restored %d tasks (hub %d), want 2", len(tasks), h2.Len())
	}
	if _, ok := h2.Task("beta"); ok {
		t.Error("skipped task must not be hosted")
	}
	for _, id := range []string{"alpha", "gamma"} {
		task, ok := h2.Task(id)
		if !ok {
			t.Fatalf("task %s not restored", id)
		}
		assertStatesEqual(t, task.Server().ExportState(), wants[id])
		if task.Info().Objective != "restored "+id {
			t.Errorf("task %s lost its configure options", id)
		}
	}
	if err := h2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestJournalHoldsEntryWhenCheckinReturns: the write-ahead contract —
// by the time Checkin for iteration t returns, t's journal entry is in
// the journal, carrying the request exactly as applied.
func TestJournalHoldsEntryWhenCheckinReturns(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{Every: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	srv := task.Server()
	token, err := srv.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		req := &core.CheckinRequest{Grad: []float64{float64(i), 0, 0, 1}, NumSamples: 2, ErrCount: 1, LabelCounts: []int{1, 1}}
		if err := srv.Checkin(ctx, "d1", token, req); err != nil {
			t.Fatal(err)
		}
		entries, err := readAll(st)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != i {
			t.Fatalf("%d journal entries once checkin %d returned, want %d", len(entries), i, i)
		}
		e := entries[i-1]
		if e.Iteration != i || e.DeviceID != "d1" || !reflect.DeepEqual(e.Grad, req.Grad) ||
			e.NumSamples != 2 || e.ErrCount != 1 || !reflect.DeepEqual(e.LabelCounts, req.LabelCounts) {
			t.Errorf("entry %d = %+v, want checkin %d as applied", i, e, i)
		}
	}
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDurableTaskRefusesOnCommit: a durable task's OnCommit is its
// journal, so a cfg that already sets one is refused at CreateTask,
// leaving neither the task ID nor the store held. A task without a store
// keeps its own OnCommit.
func TestDurableTaskRefusesOnCommit(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	h := New()
	var commits atomic.Int64
	cfg := serverConfig()
	cfg.OnCommit = func(records []core.ReplayRecord) { commits.Add(int64(len(records))) }
	if _, err := h.CreateTask(ctx, "t", cfg, WithStore(st)); err == nil || !strings.Contains(err.Error(), "OnCommit") {
		t.Fatalf("CreateTask with a store and cfg.OnCommit = %v, want a refusal naming OnCommit", err)
	}
	durable, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st))
	if err != nil {
		t.Fatalf("the same ID and store without cfg.OnCommit: %v", err)
	}
	checkinN(t, durable.Server(), "d1", 2)
	plain, err := h.CreateTask(ctx, "plain", cfg)
	if err != nil {
		t.Fatalf("a task without a store: %v", err)
	}
	checkinN(t, plain.Server(), "d1", 3)
	if commits.Load() != 3 {
		t.Errorf("a plain task's own OnCommit saw %d records, want 3", commits.Load())
	}
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestReplayGapFailsCreate: a journal that skips an iteration beyond the
// snapshot is unrecoverable and must surface, not silently diverge.
func TestReplayGapFailsCreate(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, iter := range []int{1, 3} { // gap: no iteration 2
		err := j.Append(ctx, store.JournalEntry{
			DeviceID: "d", Iteration: iter,
			Grad: []float64{1, 2, 3, 4}, LabelCounts: []int{1, 1}, NumSamples: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	h := New()
	if _, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st)); !errors.Is(err, core.ErrReplayGap) {
		t.Errorf("CreateTask error = %v, want ErrReplayGap", err)
	}
}

// failingStore wraps a memory store with a journal that starts erroring
// after failAfter successful appends.
type failingStore struct {
	*store.FileStore
	failAfter int
}

type failingJournal struct {
	store.Journal
	st *failingStore
	n  int
}

func (f *failingStore) OpenJournal(ctx context.Context) (store.Journal, error) {
	j, err := f.FileStore.OpenJournal(ctx)
	if err != nil {
		return nil, err
	}
	return &failingJournal{Journal: j, st: f}, nil
}

func (j *failingJournal) Append(ctx context.Context, e store.JournalEntry) error {
	if j.n >= j.st.failAfter {
		return errors.New("disk full")
	}
	j.n++
	return j.Journal.Append(ctx, e)
}

// TestJournalAppendFailureFailStops: once an applied checkin cannot be
// journaled, the WAL guarantee is broken for it — the task must stop
// accepting checkins (bounding the acknowledged-but-unjournaled window),
// no later append may leave a replay-breaking hole behind the failure,
// and Close must surface the error.
func TestJournalAppendFailureFailStops(t *testing.T) {
	ctx := context.Background()
	st := &failingStore{FileStore: store.NewMemStore(), failAfter: 2}
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{Every: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	srv := task.Server()
	token, err := srv.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	req := func() *core.CheckinRequest {
		return &core.CheckinRequest{Grad: []float64{1, 0, 0, 1}, NumSamples: 1, LabelCounts: []int{1, 0}}
	}
	for i := 0; i < 2; i++ {
		if err := srv.Checkin(ctx, "d1", token, req()); err != nil {
			t.Fatal(err)
		}
	}
	// The third checkin applies but its journal append fails: the caller
	// still sees success (it IS applied), and the task fail-stops.
	if err := srv.Checkin(ctx, "d1", token, req()); err != nil {
		t.Fatalf("the applied checkin's own call reports success, got %v", err)
	}
	if !srv.Stopped() {
		t.Error("task must stop once the journal cannot keep the WAL guarantee")
	}
	if err := srv.Checkin(ctx, "d1", token, req()); !errors.Is(err, core.ErrStopped) {
		t.Errorf("post-failure checkin error = %v, want ErrStopped", err)
	}
	// The journal holds the contiguous prefix only — no hole.
	entries, err := readAll(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("journal has %d entries, want the 2 durable ones", len(entries))
	}
	if err := h.Close(ctx); err == nil {
		t.Error("Close must surface the journal failure")
	}
	// The fail-stop is operational, not learning state: after the
	// operator fixes the store, a restart resumes the task — with the
	// full pre-failure state (the final checkpoint covered the
	// unjournaled checkin).
	st.failAfter = 1 << 30 // "disk freed"
	h2 := New()
	restored, err := h2.CreateTask(ctx, "t", serverConfig(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Server().Stopped() {
		t.Error("transient journal failure must not persist Stopped across restarts")
	}
	if restored.Server().Iteration() != 3 {
		t.Errorf("restored iteration = %d, want 3 (final checkpoint covers the unjournaled checkin)",
			restored.Server().Iteration())
	}
	checkinN(t, restored.Server(), "d9", 1)
	if err := h2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRotatesJournal: every successful checkpoint must seal
// the live segment, and a post-rotation crash must still restore the
// exact state (checkpoint + live-tail replay across the rotation).
func TestCheckpointRotatesJournal(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{AfterN: 3}))
	if err != nil {
		t.Fatal(err)
	}
	checkinN(t, task.Server(), "d1", 3)
	deadline := time.Now().Add(5 * time.Second)
	for segmentCount(t, st) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never rotated the journal")
		}
		time.Sleep(time.Millisecond)
	}
	checkinN(t, task.Server(), "d2", 2) // the tail in the fresh segment
	want := task.Server().ExportState()

	// Crash without Close; the restore crosses the rotation boundary.
	h2 := New()
	restored, err := h2.CreateTask(ctx, "t", serverConfig(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	assertStatesEqual(t, restored.Server().ExportState(), want)
	if err := h2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// rotateBlockedStore wraps a memory store with a journal whose Rotate fails
// while armed — the observable state of a crash (or transient error)
// landing between checkpoint success and the segment seal: the
// checkpoint exists, but the covered entries still sit in the live
// segment.
type rotateBlockedStore struct {
	*store.FileStore
	blocked atomic.Bool
}

type rotateBlockedJournal struct {
	store.Journal
	st *rotateBlockedStore
}

func (s *rotateBlockedStore) OpenJournal(ctx context.Context) (store.Journal, error) {
	j, err := s.FileStore.OpenJournal(ctx)
	if err != nil {
		return nil, err
	}
	return &rotateBlockedJournal{Journal: j, st: s}, nil
}

func (j *rotateBlockedJournal) Rotate(ctx context.Context) error {
	if j.st.blocked.Load() {
		return errors.New("crash before seal")
	}
	return j.Journal.Rotate(ctx)
}

// TestCrashBetweenCheckpointSuccessAndSeal: the checkpoint lands, the
// rotation never does, the process dies. The live segment then holds
// entries the checkpoint already covers PLUS the tail beyond it —
// restore must replay exactly the tail (Replay skips covered records)
// and land on the exact pre-crash state.
func TestCrashBetweenCheckpointSuccessAndSeal(t *testing.T) {
	ctx := context.Background()
	st := &rotateBlockedStore{FileStore: store.NewMemStore()}
	st.blocked.Store(true)
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{AfterN: 3}))
	if err != nil {
		t.Fatal(err)
	}
	checkinN(t, task.Server(), "d1", 3)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cp, err := st.Load(ctx); err == nil && cp.State.Iteration == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never landed")
		}
		time.Sleep(time.Millisecond)
	}
	if n := segmentCount(t, st); n != 1 {
		t.Fatalf("rotation happened despite the simulated crash window (%d segments)", n)
	}
	checkinN(t, task.Server(), "d2", 2) // tail beyond the checkpoint, same segment
	want := task.Server().ExportState()

	// Crash without Close; restore from checkpoint@3 + a live segment
	// whose first three entries the checkpoint covers.
	h2 := New()
	restored, err := h2.CreateTask(ctx, "t", serverConfig(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Server().ExportState()
	assertStatesEqual(t, got, want)
	if got.Iteration != 5 {
		t.Errorf("iteration = %d, want 5", got.Iteration)
	}
	if err := h2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// syncCountingStore wraps a memory store and counts journal Sync calls, so
// the SyncPolicy wiring is observable.
type syncCountingStore struct {
	*store.FileStore
	syncs    atomic.Int64
	syncFail atomic.Bool
}

type syncCountingJournal struct {
	store.Journal
	st *syncCountingStore
}

func (s *syncCountingStore) OpenJournal(ctx context.Context) (store.Journal, error) {
	j, err := s.FileStore.OpenJournal(ctx)
	if err != nil {
		return nil, err
	}
	return &syncCountingJournal{Journal: j, st: s}, nil
}

func (j *syncCountingJournal) Sync(ctx context.Context) error {
	if j.st.syncFail.Load() {
		return errors.New("fsync failed")
	}
	j.st.syncs.Add(1)
	return j.Journal.Sync(ctx)
}

// TestSyncPolicyGroupCommit: SyncBatch must sync once per applying batch
// (sequential checkins are one-item batches, so that is one fsync per
// checkin before its ack), SyncNone never. Under concurrency the sync
// count is the number of applying batches, whatever their sizes.
func TestSyncPolicyGroupCommit(t *testing.T) {
	ctx := context.Background()
	for name, tc := range map[string]struct {
		policy    SyncPolicy
		wantSyncs int64
	}{
		"SyncNone":  {SyncNone, 0},
		"SyncBatch": {SyncBatch, 5},
	} {
		t.Run(name, func(t *testing.T) {
			st := &syncCountingStore{FileStore: store.NewMemStore()}
			h := New()
			task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
				WithCheckpointPolicy(CheckpointPolicy{Every: time.Hour}),
				WithSyncPolicy(tc.policy))
			if err != nil {
				t.Fatal(err)
			}
			checkinN(t, task.Server(), "d1", 5)
			if got := st.syncs.Load(); got != tc.wantSyncs {
				t.Errorf("%d journal syncs for 5 sequential checkins, want %d", got, tc.wantSyncs)
			}
			if err := h.Close(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("SyncBatchConcurrent", func(t *testing.T) {
		const devices, perDevice = 8, 25
		st := &syncCountingStore{FileStore: store.NewMemStore()}
		reg := telemetry.NewRegistry()
		cfg := serverConfig()
		cfg.Metrics = core.NewServerMetrics(reg, "t")
		h := New()
		task, err := h.CreateTask(ctx, "t", cfg, WithStore(st),
			WithCheckpointPolicy(CheckpointPolicy{Every: time.Hour}),
			WithSyncPolicy(SyncBatch))
		if err != nil {
			t.Fatal(err)
		}
		srv := task.Server()
		var wg sync.WaitGroup
		for i := 0; i < devices; i++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				token, err := srv.RegisterDevice(ctx, id)
				if err != nil {
					t.Error(err)
					return
				}
				for n := 0; n < perDevice; n++ {
					req := &core.CheckinRequest{Grad: []float64{1, 0.5, -0.25, 1}, NumSamples: 2, LabelCounts: []int{1, 1}}
					if err := srv.Checkin(ctx, id, token, req); err != nil {
						t.Errorf("%s checkin %d: %v", id, n, err)
						return
					}
				}
			}(fmt.Sprintf("d%d", i))
		}
		wg.Wait()
		// The server's batch-size histogram counts one observation per
		// batch; none was stopped, so every batch applied something.
		batches := reg.Histogram("crowdml_checkin_batch_size",
			"Checkin deltas applied per parameter-lock acquisition.",
			telemetry.BatchBuckets, telemetry.L("task", "t")).Count()
		if got := st.syncs.Load(); uint64(got) != batches {
			t.Errorf("%d journal syncs for %d applying batches", got, batches)
		}
		entries, err := readAll(st)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != devices*perDevice {
			t.Errorf("%d journal entries for %d checkins", len(entries), devices*perDevice)
		}
		if err := h.Close(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSyncFailureFailStops: a failed group-commit fsync breaks the
// power-loss guarantee for entries already acknowledged-in-flight — the
// task must fail-stop exactly like a failed append, and Close must
// surface it.
func TestSyncFailureFailStops(t *testing.T) {
	ctx := context.Background()
	st := &syncCountingStore{FileStore: store.NewMemStore()}
	st.syncFail.Store(true)
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{Every: time.Hour}),
		WithSyncPolicy(SyncBatch))
	if err != nil {
		t.Fatal(err)
	}
	srv := task.Server()
	token, err := srv.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	req := &core.CheckinRequest{Grad: []float64{1, 0, 0, 1}, NumSamples: 1, LabelCounts: []int{1, 0}}
	if err := srv.Checkin(ctx, "d1", token, req); err != nil {
		t.Fatalf("the applied checkin's own call reports success, got %v", err)
	}
	if !srv.Stopped() {
		t.Error("task must fail-stop once the journal cannot be synced")
	}
	if err := h.Close(ctx); err == nil {
		t.Error("Close must surface the sync failure")
	}
}

// panicNthUpdater panics on exactly the nth Update call.
type panicNthUpdater struct {
	n     int
	calls atomic.Int64
}

func (u *panicNthUpdater) Update(w, g *linalg.Matrix, t int) {
	if int(u.calls.Add(1)) == u.n {
		panic("updater exploded")
	}
	// A plain SGD step is irrelevant here; the test only checks the
	// journal invariant, so applying nothing is fine.
}

func (u *panicNthUpdater) Name() string { return "panic-nth" }

// TestUpdaterPanicKeepsJournalContiguous: checkins acknowledged as
// successes must ALL be journaled even when a later item in their batch
// panics the Updater — a success acked without a journal record would be
// an unrecoverable replay gap after a crash.
func TestUpdaterPanicKeepsJournalContiguous(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	h := New()
	cfg := core.ServerConfig{
		Model:   serverConfig().Model,
		Updater: &panicNthUpdater{n: 4},
		// Many concurrent callers form multi-item batches, so
		// applied-then-panic coexist.
	}
	task, err := h.CreateTask(ctx, "t", cfg, WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{Every: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	srv := task.Server()
	token, err := srv.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 12
	var wg sync.WaitGroup
	acked := make(chan int, callers) // iterations? unknown; count successes
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = recover() }() // the leader observes the panic
			req := &core.CheckinRequest{
				Grad: []float64{1, 0, 0, 1}, NumSamples: 1, LabelCounts: []int{1, 0},
			}
			if err := srv.Checkin(ctx, "d1", token, req); err == nil {
				acked <- 1
			}
		}()
	}
	wg.Wait()
	close(acked)
	successes := 0
	for range acked {
		successes++
	}
	entries, err := readAll(st)
	if err != nil {
		t.Fatal(err)
	}
	// Every acknowledged success has a journal record, and the records
	// are the contiguous iteration prefix replay requires. (The leader
	// whose own call panicked was also applied — its hook ran too — so
	// the journal may exceed the success count, never trail it.)
	if len(entries) < successes {
		t.Errorf("%d journal entries for %d acknowledged successes", len(entries), successes)
	}
	if len(entries) != srv.Iteration() {
		t.Errorf("journal has %d entries, server at iteration %d", len(entries), srv.Iteration())
	}
	for i, e := range entries {
		if e.Iteration != i+1 {
			t.Fatalf("journal entry %d has iteration %d — gap would break replay", i, e.Iteration)
		}
	}
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCheckpointScrubsFailStop: the ASYNC checkpointer must apply
// the same fail-stop scrub as close() — a snapshot written after a
// transient journal error, followed by a crash with no clean close,
// must not restore the task permanently stopped.
func TestAsyncCheckpointScrubsFailStop(t *testing.T) {
	ctx := context.Background()
	st := &failingStore{FileStore: store.NewMemStore(), failAfter: 1}
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{AfterN: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// Checkin 1 journals; checkin 2's append fails and latches the
	// fail-stop; both kick the AfterN checkpointer.
	checkinN(t, task.Server(), "d1", 2)
	if !task.Server().Stopped() {
		t.Fatal("fail-stop did not latch")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cp, err := st.Load(ctx)
		if err == nil && cp.State.Iteration == 2 {
			if cp.State.Stopped {
				t.Fatal("async snapshot persisted the fail-stop latch as learning state")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpointer never wrote the post-failure snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	// Crash (no Close): the restored task must accept checkins again.
	st.failAfter = 1 << 30
	h2 := New()
	restored, err := h2.CreateTask(ctx, "t", serverConfig(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Server().Stopped() {
		t.Error("crash after a post-fail-stop snapshot bricked the task")
	}
	checkinN(t, restored.Server(), "d2", 1)
	if err := h2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateDurableTaskAborted: losing the registration race must not
// leak the journal handle or flush a bogus checkpoint.
func TestDuplicateDurableTaskAborted(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemStore()
	h := New()
	if _, err := h.CreateTask(ctx, "t", serverConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st)); !errors.Is(err, ErrTaskExists) {
		t.Fatalf("error = %v, want ErrTaskExists", err)
	}
	if _, err := st.Load(ctx); !errors.Is(err, store.ErrNoCheckpoint) {
		t.Error("aborted creation must not write a checkpoint")
	}
}

// ---- Segment retention (WithRetention) ----

// retentionBackend is one store under retention test: the
// store, its segment listing, and a crash-faithful reopen (FileStore
// copies the tree so the dead hub's advisory lock does not block the
// restore, exactly like the top-level recovery tests).
type retentionBackend struct {
	st       store.Store
	segments func() []store.SegmentInfo
	reopen   func(t *testing.T) store.Store
}

// retentionBackends parameterizes the retention tests over a store in
// memory and one on disk.
func retentionBackends(t *testing.T) map[string]func(t *testing.T) retentionBackend {
	list := func(fn func(context.Context) ([]store.SegmentInfo, error)) func() []store.SegmentInfo {
		return func() []store.SegmentInfo {
			segs, err := fn(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return segs
		}
	}
	return map[string]func(t *testing.T) retentionBackend{
		"MemStore": func(t *testing.T) retentionBackend {
			st := store.NewMemStore()
			return retentionBackend{
				st:       st,
				segments: list(st.Segments),
				reopen:   func(t *testing.T) store.Store { return st },
			}
		},
		"FileStore": func(t *testing.T) retentionBackend {
			dir := t.TempDir()
			fs, err := store.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			return retentionBackend{
				st:       fs,
				segments: list(fs.Segments),
				reopen: func(t *testing.T) store.Store {
					crashDir := t.TempDir()
					copyStoreDir(t, dir, crashDir)
					fs2, err := store.NewFileStore(crashDir)
					if err != nil {
						t.Fatal(err)
					}
					return fs2
				},
			}
		},
	}
}

// copyStoreDir freezes a store directory the way a process crash does:
// the files stop changing and the kernel releases the dead holder's
// journal lock — which is exactly what a copy gives us.
func copyStoreDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		payload, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), payload, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for " + what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetentionPruneCoveredBounded: with PruneCovered, each checkpoint
// cycle prunes the sealed segment it covers, so the segment count stays
// bounded across waves instead of growing — and the pruned store still
// restores the exact pre-crash state (the checkpoint + live tail are
// all recovery ever needed).
func TestRetentionPruneCoveredBounded(t *testing.T) {
	ctx := context.Background()
	for name, mk := range retentionBackends(t) {
		t.Run(name, func(t *testing.T) {
			backend := mk(t)
			st := backend.st
			h := New()
			task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
				WithCheckpointPolicy(CheckpointPolicy{AfterN: 3}),
				WithRetention(PruneCovered))
			if err != nil {
				t.Fatal(err)
			}
			for wave := 0; wave < 3; wave++ {
				checkinN(t, task.Server(), fmt.Sprintf("d%d", wave), 3)
				// Each wave: checkpoint -> rotate (fresh live segment, seq
				// wave+2) -> prune (the sealed, covered one goes away). The
				// sequence number distinguishes "cycle done" from "not yet
				// rotated", both of which show a single segment.
				wantSeq := wave + 2
				waitForCond(t, "checkpoint+prune cycle", func() bool {
					segs := backend.segments()
					return len(segs) == 1 && segs[0].Seq == wantSeq
				})
			}
			checkinN(t, task.Server(), "tail", 2) // beyond the last checkpoint
			want := task.Server().ExportState()

			// Crash without Close; the pruned store must restore exactly.
			h2 := New()
			restored, err := h2.CreateTask(ctx, "t", serverConfig(), WithStore(backend.reopen(t)))
			if err != nil {
				t.Fatal(err)
			}
			assertStatesEqual(t, restored.Server().ExportState(), want)
			if got := restored.Server().Iteration(); got != 11 {
				t.Errorf("restored iteration = %d, want 11", got)
			}
			if err := h2.Close(ctx); err != nil {
				t.Fatal(err)
			}
			_ = h.Close(ctx) // release the crashed hub's goroutines and lock
		})
	}
}

// TestRetentionSkippedOnFailedRotation: a checkpoint whose rotation
// fails must NOT trigger retention — the covered entries still sit in
// the live segment, and pruning anything near it would be the exact
// corruption the never-touch-the-live-segment rule exists to prevent.
func TestRetentionSkippedOnFailedRotation(t *testing.T) {
	ctx := context.Background()
	st := &rotateBlockedStore{FileStore: store.NewMemStore()}
	st.blocked.Store(true)
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{AfterN: 3}),
		WithRetention(PruneCovered))
	if err != nil {
		t.Fatal(err)
	}
	checkinN(t, task.Server(), "d1", 3)
	waitForCond(t, "checkpoint", func() bool {
		cp, err := st.Load(ctx)
		return err == nil && cp.State.Iteration == 3
	})
	if n := segmentCount(t, st); n != 1 {
		t.Fatalf("rotation happened despite the simulated failure (%d segments)", n)
	}
	// Retention must not have touched the (covered but un-rotated) live
	// segment: every journaled entry is still there.
	entries, err := readAll(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("journal has %d entries after the failed rotation, want all 3", len(entries))
	}
	checkinN(t, task.Server(), "d2", 2)
	want := task.Server().ExportState()

	h2 := New()
	restored, err := h2.CreateTask(ctx, "t", serverConfig(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	assertStatesEqual(t, restored.Server().ExportState(), want)
	if err := h2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRetentionArchiveKeepsAuditTrail: ArchiveCovered moves covered
// segments aside instead of deleting them — the store stays bounded
// like PruneCovered, while the archive directory accumulates the full
// covered history as ordinary journal segments. On disk only: a store in
// memory archives into its own memory, which this package cannot read
// back (the store package's conformance suite does).
func TestRetentionArchiveKeepsAuditTrail(t *testing.T) {
	ctx := context.Background()
	t.Run("FileStore", func(t *testing.T) {
		backend := retentionBackends(t)["FileStore"](t)
		archiveDir := t.TempDir()
		archive, err := store.NewFileStore(archiveDir)
		if err != nil {
			t.Fatal(err)
		}
		h := New()
		task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(backend.st),
			WithCheckpointPolicy(CheckpointPolicy{AfterN: 4}),
			WithRetention(ArchiveCovered(archiveDir)))
		if err != nil {
			t.Fatal(err)
		}
		checkinN(t, task.Server(), "d1", 4)
		// The cycle is observable at its END: the archive holds the
		// covered history (waiting on segment counts alone would race
		// the checkpoint-rotate-archive pipeline).
		waitForCond(t, "checkpoint+archive cycle", func() bool {
			archived, err := readAll(archive)
			return err == nil && len(archived) == 4
		})
		want := task.Server().ExportState()

		// The archived history reads back as a plain segment chain.
		archived, err := readAll(archive)
		if err != nil {
			t.Fatalf("read archive: %v", err)
		}
		for i := range archived {
			if archived[i].Iteration != i+1 || len(archived[i].Grad) == 0 {
				t.Errorf("archived entry %d = %+v", i, archived[i])
			}
		}
		// And the store alone still restores the exact state.
		h2 := New()
		restored, err := h2.CreateTask(ctx, "t", serverConfig(), WithStore(backend.reopen(t)))
		if err != nil {
			t.Fatal(err)
		}
		assertStatesEqual(t, restored.Server().ExportState(), want)
		if err := h2.Close(ctx); err != nil {
			t.Fatal(err)
		}
		_ = h.Close(ctx) // release the crashed hub's goroutines and lock
	})
}

// hiddenRetainerStore wraps a memory store behind the plain Store interface
// so the SegmentRetainer implementation is invisible.
type hiddenRetainerStore struct{ inner store.Store }

func (s *hiddenRetainerStore) Save(ctx context.Context, state *core.ServerState, now time.Time) error {
	return s.inner.Save(ctx, state, now)
}
func (s *hiddenRetainerStore) Load(ctx context.Context) (*store.Checkpoint, error) {
	return s.inner.Load(ctx)
}
func (s *hiddenRetainerStore) OpenJournal(ctx context.Context) (store.Journal, error) {
	return s.inner.OpenJournal(ctx)
}
func (s *hiddenRetainerStore) OpenCursor(ctx context.Context, after int) (store.JournalCursor, error) {
	return s.inner.OpenCursor(ctx, after)
}

// TestRetentionMisconfigurationFailsCreate: a retention policy the
// store cannot execute (or an archive policy with no destination) must
// fail at CreateTask, not be silently ignored at the first checkpoint.
func TestRetentionMisconfigurationFailsCreate(t *testing.T) {
	ctx := context.Background()
	h := New()
	if _, err := h.CreateTask(ctx, "no-retainer", serverConfig(),
		WithStore(&hiddenRetainerStore{inner: store.NewMemStore()}),
		WithRetention(PruneCovered)); err == nil {
		t.Error("CreateTask must reject retention on a store without SegmentRetainer")
	}
	if _, err := h.CreateTask(ctx, "no-dir", serverConfig(),
		WithStore(store.NewMemStore()),
		WithRetention(ArchiveCovered(""))); err == nil {
		t.Error("CreateTask must reject ArchiveCovered with an empty directory")
	}
	// KeepAll (the default) needs neither.
	if _, err := h.CreateTask(ctx, "keep", serverConfig(),
		WithStore(&hiddenRetainerStore{inner: store.NewMemStore()}),
		WithRetention(KeepAll)); err != nil {
		t.Errorf("KeepAll on a plain store must work: %v", err)
	}
}

// slowSaveStore's Save blocks until three more checkins have been
// journaled than when it was entered (or release is called): a
// checkpoint that takes a while under steady traffic. saves counts Save
// calls as they are entered.
type slowSaveStore struct {
	*store.FileStore
	mu       sync.Mutex
	cond     *sync.Cond
	appended int
	released bool
	saves    int
}

type slowSaveJournal struct {
	store.Journal
	st *slowSaveStore
}

func newSlowSaveStore() *slowSaveStore {
	s := &slowSaveStore{FileStore: store.NewMemStore()}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *slowSaveStore) OpenJournal(ctx context.Context) (store.Journal, error) {
	j, err := s.FileStore.OpenJournal(ctx)
	if err != nil {
		return nil, err
	}
	return &slowSaveJournal{Journal: j, st: s}, nil
}

func (j *slowSaveJournal) Append(ctx context.Context, e store.JournalEntry) error {
	err := j.Journal.Append(ctx, e)
	j.st.mu.Lock()
	j.st.appended++
	j.st.mu.Unlock()
	j.st.cond.Broadcast()
	return err
}

func (s *slowSaveStore) Save(ctx context.Context, state *core.ServerState, now time.Time) error {
	s.mu.Lock()
	s.saves++
	s.cond.Broadcast()
	for target := s.appended + 3; s.appended < target && !s.released; {
		s.cond.Wait()
	}
	s.mu.Unlock()
	return s.FileStore.Save(ctx, state, now)
}

// awaitSaves blocks until Save has been entered n times.
func (s *slowSaveStore) awaitSaves(n int) {
	s.mu.Lock()
	for s.saves < n {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

func (s *slowSaveStore) release() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.released = true
	s.cond.Broadcast()
	return s.saves
}

// TestAfterNCheckpointsOncePerThreshold: checkins journaled while a save
// runs still see the pre-save count at or past AfterN and re-arm the
// trigger; the checkpointer must not answer that stale kick with a
// second save of the few checkins the first one left behind. 10·AfterN
// paced checkins write 10 checkpoints (14–15 before the re-check in run:
// two per threshold, the second delaying the next threshold by the
// checkins it waits for).
func TestAfterNCheckpointsOncePerThreshold(t *testing.T) {
	ctx := context.Background()
	const afterN = 8
	st := newSlowSaveStore()
	h := New()
	task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
		WithCheckpointPolicy(CheckpointPolicy{AfterN: afterN}))
	if err != nil {
		t.Fatal(err)
	}
	srv := task.Server()
	token, err := srv.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10*afterN; i++ {
		req := &core.CheckinRequest{Grad: []float64{1, 0, 0, 1}, NumSamples: 1, LabelCounts: []int{1, 0}}
		if err := srv.Checkin(ctx, "d1", token, req); err != nil {
			t.Fatal(err)
		}
		// A paced crowd, as in production: the pause is what gives the
		// checkpointer time to act on a stale kick before the next checkin
		// (a correct checkpointer writes 10 at any pace — every save covers
		// at least AfterN checkins, and awaitSaves holds the crowd back
		// until the save each threshold owes has begun).
		time.Sleep(200 * time.Microsecond)
		if i%afterN == 0 {
			st.awaitSaves(i / afterN)
		}
	}
	if saves := st.release(); saves < 9 || saves > 11 {
		t.Errorf("%d checkpoints for %d checkins at AfterN=%d, want 10 (±1)", saves, 10*afterN, afterN)
	}
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
