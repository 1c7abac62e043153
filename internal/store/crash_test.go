package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/invariants"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/store"
)

// The crash-point enumerator, after Pillai et al., "All File Systems Are
// Not Created Equal" (OSDI 2014): a scripted durable run is recorded as
// the sequence of file operations the store makes, and the store is
// restored from the file system every prefix of that sequence leaves —
// and, for each write no sync has yet covered, from the two states a
// power loss may leave instead: the file's unsynced writes dropped from
// that write on, or that write torn to half its length. Every restore
// must lose no acknowledged checkin and invent none. A directory entry
// lost for want of a directory sync is not modelled.

const (
	crashDir      = "t"
	crashCheckins = 10
	crashAfterN   = 4
)

// op is one mutating file operation, or the acknowledgment of a checkin.
type op struct {
	kind string // mkdir create write sync truncate rename remove syncdir ack
	path string
	to   string // rename's destination
	data []byte // write's bytes
	size int64  // truncate's length
}

// recorder is a file system in memory that logs each mutating operation
// it makes, in the order it makes them.
type recorder struct {
	store.FS
	mu   sync.Mutex
	cond sync.Cond
	log  []op
}

func newRecorder() *recorder {
	r := &recorder{FS: store.NewMemFS()}
	r.cond.L = &r.mu
	return r
}

// do runs fn and, if it succeeds, logs o.
func (r *recorder) do(o op, fn func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := fn()
	if err == nil {
		r.log = append(r.log, o)
		r.cond.Broadcast()
	}
	return err
}

func (r *recorder) ack() { _ = r.do(op{kind: "ack"}, func() error { return nil }) }

// awaitTimeout bounds await: a checkpoint cycle that never completes
// fails the test instead of hanging it.
const awaitTimeout = 30 * time.Second

// await blocks until the log holds n directory syncs, and fails t if they
// have not come within awaitTimeout.
func (r *recorder) await(t *testing.T, n int) {
	deadline := time.Now().Add(awaitTimeout)
	timer := time.AfterFunc(awaitTimeout, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.cond.Broadcast()
	})
	defer timer.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for count(r.log, "syncdir") < n {
		if !time.Now().Before(deadline) {
			t.Fatalf("%s: %d directory syncs after %v, want %d", t.Name(), count(r.log, "syncdir"), awaitTimeout, n)
		}
		r.cond.Wait()
	}
}

func count(log []op, kind string) (n int) {
	for _, o := range log {
		if o.kind == kind {
			n++
		}
	}
	return n
}

func (r *recorder) MkdirAll(dir string) error {
	return r.do(op{kind: "mkdir", path: dir}, func() error { return r.FS.MkdirAll(dir) })
}

func (r *recorder) Rename(from, to string) error {
	return r.do(op{kind: "rename", path: from, to: to}, func() error { return r.FS.Rename(from, to) })
}

func (r *recorder) Remove(path string) error {
	return r.do(op{kind: "remove", path: path}, func() error { return r.FS.Remove(path) })
}

func (r *recorder) Truncate(path string, size int64) error {
	return r.do(op{kind: "truncate", path: path, size: size}, func() error { return r.FS.Truncate(path, size) })
}

func (r *recorder) SyncDir(dir string) error {
	return r.do(op{kind: "syncdir", path: dir}, func() error { return r.FS.SyncDir(dir) })
}

func (r *recorder) OpenAppend(path string) (store.File, error) {
	return r.open(func() (store.File, error) { return r.FS.OpenAppend(path) })
}

func (r *recorder) CreateTemp(path string) (store.File, error) {
	return r.open(func() (store.File, error) { return r.FS.CreateTemp(path) })
}

func (r *recorder) open(fn func() (store.File, error)) (store.File, error) {
	var f store.File
	err := r.do(op{kind: "create"}, func() (err error) {
		f, err = fn()
		return err
	})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.log[len(r.log)-1].path = f.Name() // the name is known once the file is
	r.mu.Unlock()
	return &recFile{File: f, r: r}, nil
}

type recFile struct {
	store.File
	r *recorder
}

func (f *recFile) Write(p []byte) (n int, err error) {
	err = f.r.do(op{kind: "write", path: f.Name(), data: bytes.Clone(p)}, func() error {
		n, err = f.File.Write(p)
		return err
	})
	return n, err
}

func (f *recFile) Sync() error {
	return f.r.do(op{kind: "sync", path: f.Name()}, f.File.Sync)
}

// build replays ops onto a fresh file system in memory.
func build(t *testing.T, ops []op) store.FS {
	t.Helper()
	fsys := store.NewMemFS()
	for _, o := range ops {
		var err error
		switch o.kind {
		case "mkdir":
			err = fsys.MkdirAll(o.path)
		case "create", "write":
			var f store.File
			if f, err = fsys.OpenAppend(o.path); err == nil {
				_, err = f.Write(o.data)
				f.Close()
			}
		case "truncate":
			err = fsys.Truncate(o.path, o.size)
		case "rename":
			err = fsys.Rename(o.path, o.to)
		case "remove":
			err = fsys.Remove(o.path)
		}
		if err != nil {
			t.Fatalf("replaying %s %s: %v", o.kind, o.path, err)
		}
	}
	return fsys
}

func crashConfig() core.ServerConfig {
	return core.ServerConfig{
		Model:   model.NewLogisticRegression(3, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.5}},
	}
}

// checkin sends checkin i from device id, registering it first when it
// has no token yet.
func checkin(ctx context.Context, srv *core.Server, tokens map[string]string, id string, i int) error {
	if tokens[id] == "" {
		token, err := srv.RegisterDevice(ctx, id)
		if err != nil {
			return err
		}
		tokens[id] = token
	}
	co, err := srv.Checkout(ctx, id, tokens[id])
	if err != nil {
		return err
	}
	return srv.Checkin(ctx, id, tokens[id], &core.CheckinRequest{
		Grad: []float64{float64(i), 0.5, -0.25, 1, 0, float64(-i)}, NumSamples: 2, ErrCount: i % 2,
		LabelCounts: []int{1, i % 2, 1 - i%2}, Version: co.Version,
	})
}

// script runs the recorded durable task: crashCheckins checkins from two
// devices under SyncBatch, a checkpoint → rotate → retention cycle after
// every crashAfterN of them, and a clean close. It returns the log and
// the server's state after each checkin (history[0] is the empty state).
func script(t *testing.T, retention hub.RetentionPolicy) ([]op, []*core.ServerState) {
	ctx := context.Background()
	rec := newRecorder()
	st, err := store.NewFileStoreOn(rec, crashDir)
	if err != nil {
		t.Fatal(err)
	}
	h := hub.New()
	task, err := h.CreateTask(ctx, "t", crashConfig(), hub.WithStore(st),
		hub.WithSyncPolicy(hub.SyncBatch),
		hub.WithCheckpointPolicy(hub.CheckpointPolicy{AfterN: crashAfterN}),
		hub.WithRetention(retention))
	if err != nil {
		t.Fatal(err)
	}
	srv := task.Server()
	history := []*core.ServerState{srv.ExportStateInto(nil)}
	tokens := map[string]string{}
	for i := 1; i <= crashCheckins; i++ {
		if err := checkin(ctx, srv, tokens, []string{"d1", "d2"}[i%2], i); err != nil {
			t.Fatal(err)
		}
		rec.ack()
		history = append(history, srv.ExportStateInto(nil))
		if i%crashAfterN == 0 {
			// A cycle syncs the directory three times: after the checkpoint's
			// rename, the rotation's create and the retention's removals.
			rec.await(t, 3*i/crashAfterN)
		}
	}
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return rec.log, history
}

// crashState is one file system a crash can leave, with the number of
// checkins acknowledged before it.
type crashState struct {
	name  string
	ops   []op
	acked int
}

// crashStates enumerates every prefix of log, and for each write in a
// prefix that no later sync of its file covers, the prefix with that
// file's writes from it on dropped, and with that write torn in half and
// the file's later writes dropped.
func crashStates(log []op) []crashState {
	var states []crashState
	for i := 0; i <= len(log); i++ {
		prefix, acked := log[:i], count(log[:i], "ack")
		states = append(states, crashState{fmt.Sprintf("prefix %d", i), prefix, acked})
		for w, o := range prefix {
			if o.kind != "write" || slices.ContainsFunc(prefix[w:], func(s op) bool { return s.kind == "sync" && s.path == o.path }) {
				continue
			}
			later := func(k int, s op) bool { return k >= w && s.kind == "write" && s.path == o.path }
			var dropped, torn []op
			for k, s := range prefix {
				if k == w {
					s.data = s.data[:len(s.data)/2]
					torn = append(torn, s)
				}
				if !later(k, s) {
					dropped, torn = append(dropped, s), append(torn, s)
				}
			}
			states = append(states,
				crashState{fmt.Sprintf("prefix %d, write %d dropped", i, w), dropped, acked},
				crashState{fmt.Sprintf("prefix %d, write %d torn", i, w), torn, acked})
		}
	}
	return states
}

// restore reopens the store a crash state leaves and checks it: the
// restore succeeds (a sealed segment never reads as torn or corrupt), the
// restored state is history[j] for some j ≥ the acknowledged count, its
// counters compose, the journal holds every iteration the checkpoint does
// not cover exactly once, and one more checkin applies at j+1.
func restore(t *testing.T, s crashState, history []*core.ServerState) {
	ctx := context.Background()
	st, err := store.NewFileStoreOn(build(t, s.ops), crashDir)
	if err != nil {
		t.Fatal(err)
	}
	h := hub.New()
	defer h.Close(ctx)
	task, err := h.CreateTask(ctx, "t", crashConfig(), hub.WithStore(st),
		hub.WithSyncPolicy(hub.SyncBatch), hub.WithCheckpointPolicy(hub.CheckpointPolicy{Every: time.Hour}))
	if err != nil {
		t.Errorf("%s: restore: %v", s.name, err)
		return
	}
	got := task.Server().ExportStateInto(nil)
	j := got.Iteration
	if j < s.acked || j >= len(history) {
		t.Errorf("%s: restored iteration %d, but %d checkins were acknowledged of %d", s.name, j, s.acked, len(history)-1)
		return
	}
	covered := 0
	if cp, err := st.Load(ctx); err == nil {
		covered = cp.State.Iteration
	} else if !errors.Is(err, store.ErrNoCheckpoint) {
		t.Errorf("%s: load: %v", s.name, err)
	}
	for _, err := range []error{
		invariants.Same(got, history[j]),
		invariants.Counters(got),
		invariants.Journal(ctx, st, covered, j),
		checkin(ctx, task.Server(), map[string]string{}, "d1", j+1),
		invariants.Journal(ctx, st, j, j+1),
	} {
		if err != nil {
			t.Errorf("%s (restored at %d): %v", s.name, j, err)
			return
		}
	}
}

// TestCrashPoints restores the scripted run from every crash state, once
// with covered segments pruned and once with them archived, after
// checking that the script's operations are the same on every run.
func TestCrashPoints(t *testing.T) {
	total := 0
	for name, retention := range map[string]hub.RetentionPolicy{
		"PruneCovered":   hub.PruneCovered,
		"ArchiveCovered": hub.ArchiveCovered(crashDir + "/archive"),
	} {
		t.Run(name, func(t *testing.T) {
			log, history := script(t, retention)
			again, _ := script(t, retention)
			if got, want := shape(again), shape(log); !slices.Equal(got, want) {
				t.Fatalf("the script's operations differ between runs:\n%v\n%v", got, want)
			}
			states := crashStates(log)
			for _, s := range states {
				restore(t, s, history)
			}
			total += len(states)
			t.Logf("%d operations, %d crash states", len(log)-count(log, "ack"), len(states))
		})
	}
	t.Logf("%d crash states checked", total)
}

// shape is a log's operations by kind and path.
func shape(log []op) []string {
	var out []string
	for _, o := range log {
		if o.kind != "ack" {
			out = append(out, o.kind+" "+o.path+" "+o.to)
		}
	}
	return out
}
