package replica

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/transport"
)

func serverConfig() core.ServerConfig {
	return core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	}
}

// newLeader hosts task "alpha" with a journal in memory behind an HTTP
// server and returns its base URL, server, and store.
func newLeader(t *testing.T, opts ...hub.TaskOption) (string, *core.Server, *store.FileStore) {
	t.Helper()
	st := store.NewMemStore()
	h := hub.New()
	task, err := h.CreateTask(context.Background(), "alpha", serverConfig(),
		append([]hub.TaskOption{hub.WithStore(st)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(transport.NewHandler(h))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { h.Close(context.Background()) })
	return ts.URL, task.Server(), st
}

// newFollower creates a follower replica of the leader at baseURL and a
// Replicator driving it (not yet started).
func newFollower(t *testing.T, baseURL string) (*hub.Task, *Replicator) {
	t.Helper()
	_, task := newFollowerTask(t, baseURL)
	return task, newReplicator(t, task, baseURL)
}

// newFollowerTask creates the replica task "alpha" of the leader at
// baseURL on a hub of its own.
func newFollowerTask(t *testing.T, baseURL string) (*hub.Hub, *hub.Task) {
	t.Helper()
	h := hub.New()
	task, err := h.CreateTask(context.Background(), "alpha", serverConfig(),
		hub.AsReplicaOf(baseURL))
	if err != nil {
		t.Fatal(err)
	}
	return h, task
}

// newReplicator builds a replicator for an existing follower task. Its
// feed's RetryPolicy is the follower's only timing knob besides the poll.
func newReplicator(t *testing.T, task *hub.Task, baseURL string) *Replicator {
	t.Helper()
	feed := transport.NewHTTPClient(baseURL, nil).WithTask("alpha").
		WithRetry(transport.RetryPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
	r, err := New(Config{Task: task, Feed: feed, PollInterval: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func drive(t *testing.T, srv *core.Server, device string, n int) {
	t.Helper()
	ctx := context.Background()
	token, err := srv.RegisterDevice(ctx, device)
	if err != nil && !errors.Is(err, core.ErrAuth) {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		req := &core.CheckinRequest{
			Grad:        []float64{0.1, -0.2, 0.3, -0.4},
			NumSamples:  3,
			ErrCount:    1,
			LabelCounts: []int{2, 1},
			Version:     srv.Iteration(),
		}
		if err := srv.Checkin(ctx, device, token, req); err != nil {
			t.Fatalf("checkin %d: %v", i, err)
		}
	}
}

// waitConverged polls until the follower has applied everything the
// leader has, with zero reported lag.
func waitConverged(t *testing.T, leader *core.Server, task *hub.Task) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		lag, ok := task.ReplicationLag()
		if ok && lag == 0 && task.Server().Iteration() == leader.Iteration() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := task.ReplicaStatus()
	t.Fatalf("follower never converged: leader at %d, follower at %d, status %+v",
		leader.Iteration(), task.Server().Iteration(), st)
}

// requireSameState asserts leader and follower export bit-identical
// learning state: iteration, parameters, totals, per-device counters.
func requireSameState(t *testing.T, leader, follower *core.Server) {
	t.Helper()
	ls, fs := leader.ExportState(), follower.ExportState()
	if !reflect.DeepEqual(ls, fs) {
		t.Fatalf("replica diverged:\nleader   %+v\nfollower %+v", ls, fs)
	}
}

func TestReplicatorConvergesFromEmptyLeader(t *testing.T) {
	url, leader, _ := newLeader(t)
	drive(t, leader, "d1", 7)
	task, r := newFollower(t, url)
	r.Start(context.Background())
	defer r.Stop()
	waitConverged(t, leader, task)
	requireSameState(t, leader, task.Server())

	// Keep writing: the live tail must carry the new entries too.
	drive(t, leader, "d1", 5)
	waitConverged(t, leader, task)
	requireSameState(t, leader, task.Server())
}

func TestReplicatorBootstrapsFromCheckpoint(t *testing.T) {
	url, leader, st := newLeader(t,
		hub.WithCheckpointPolicy(hub.CheckpointPolicy{AfterN: 3}),
		hub.WithRetention(hub.PruneCovered))
	drive(t, leader, "d1", 9)
	waitCheckpointCovering(t, st, 3)

	task, r := newFollower(t, url)
	r.Start(context.Background())
	defer r.Stop()
	waitConverged(t, leader, task)
	requireSameState(t, leader, task.Server())
}

// waitCheckpointCovering polls until the store holds a checkpoint at or
// past the given iteration (the async checkpointer runs on its own
// goroutine).
func waitCheckpointCovering(t *testing.T, st *store.FileStore, iteration int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		cp, err := st.Load(context.Background())
		if err == nil && cp.State.Iteration >= iteration {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no checkpoint covering iteration %d appeared", iteration)
}

func TestReplicatorGapRebootstrap(t *testing.T) {
	url, leader, st := newLeader(t,
		hub.WithCheckpointPolicy(hub.CheckpointPolicy{AfterN: 2}),
		hub.WithRetention(hub.PruneCovered))
	drive(t, leader, "d1", 4)

	task, r := newFollower(t, url)
	r.Start(context.Background())
	waitConverged(t, leader, task)
	followerAt := task.Server().Iteration()

	// Disconnect the follower, then advance the leader far enough that
	// retention prunes the segments covering the follower's position.
	r.Stop()
	drive(t, leader, "d1", 10)
	waitCheckpointCovering(t, st, followerAt+2)
	waitPrunedPast(t, st, followerAt)

	// A fresh replicator on the same task resumes after=followerAt, hits
	// the retention gap, and must re-bootstrap from the checkpoint.
	r2 := newReplicator(t, task, url)
	r2.Start(context.Background())
	defer r2.Stop()
	waitConverged(t, leader, task)
	requireSameState(t, leader, task.Server())
}

// waitPrunedPast polls until the journal's oldest retained entry is past
// the given iteration — i.e. a cursor positioned there has a gap.
func waitPrunedPast(t *testing.T, st *store.FileStore, iteration int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		cur, err := st.OpenCursor(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		e, err := cur.Next()
		cur.Close()
		// Either the oldest retained entry starts past the follower's
		// resume point, or retention emptied the journal outright.
		if (err == nil && e.Iteration > iteration+1) || errors.Is(err, io.EOF) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("retention never pruned past iteration %d", iteration)
}

// waitStatus polls until the task's published replica status satisfies
// ok, failing with what after ten seconds.
func waitStatus(t *testing.T, task *hub.Task, what string, ok func(hub.ReplicaStatus) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := task.ReplicaStatus()
		if ok(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reported %s, status %+v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// darkableLeader hosts task "alpha" behind a switch: while down is set
// every request is answered 503, as a leader behind a failing proxy is.
func darkableLeader(t *testing.T) (url string, leader *core.Server, down *atomic.Bool) {
	t.Helper()
	h := hub.New()
	task, err := h.CreateTask(context.Background(), "alpha", serverConfig(),
		hub.WithStore(store.NewMemStore()))
	if err != nil {
		t.Fatal(err)
	}
	inner := transport.NewHandler(h)
	down = new(atomic.Bool)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "leader down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { h.Close(context.Background()) })
	return ts.URL, task.Server(), down
}

// TestReplicatorNeverSyncedIsNotReady: a follower whose leader has been
// dark from the start has nothing faithful to serve. Its failures leave it
// bootstrapping with LastError set — never retrying, which counts as
// ready — so /v1/healthz keeps draining it.
func TestReplicatorNeverSyncedIsNotReady(t *testing.T) {
	url, _, down := darkableLeader(t)
	down.Store(true)
	h, task := newFollowerTask(t, url)
	r := newReplicator(t, task, url)
	r.Start(context.Background())
	defer r.Stop()

	waitStatus(t, task, "a failure", func(st hub.ReplicaStatus) bool { return st.LastError != "" })
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if ready, st := task.Ready(); ready || st.State != hub.ReplicaBootstrapping {
			t.Fatalf("never-synced follower: ready %v, status %+v; want not ready, bootstrapping", ready, st)
		}
	}
	rec := httptest.NewRecorder()
	transport.NewHandler(h).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, transport.PathHealthz, nil))
	var hr transport.HealthResponse
	if err := json.NewDecoder(rec.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || len(hr.Tasks) != 1 {
		t.Fatalf("healthz = %d %+v, want 503 with one row", rec.Code, hr)
	}
	if row := hr.Tasks[0]; row.Ready || row.ReplicaState != hub.ReplicaBootstrapping || row.LastError == "" {
		t.Errorf("healthz row %+v, want not ready, bootstrapping, with lastError", row)
	}
}

// TestReplicatorRetriesThroughLeaderOutage: a synced follower that loses
// its leader reports retrying, stays ready and keeps serving the last
// state it replicated; when the leader returns it tails again, clears the
// error and converges. A reader polls the published status throughout, so
// the race detector sees publisher and reader together.
func TestReplicatorRetriesThroughLeaderOutage(t *testing.T) {
	url, leader, down := darkableLeader(t)
	drive(t, leader, "d1", 3)
	task, r := newFollower(t, url)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			task.ReplicaStatus()
			task.Ready()
			task.ReplicationLag()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	r.Start(context.Background())
	defer r.Stop()
	waitConverged(t, leader, task)
	// The leader is quiescent here; the follower's published snapshot may
	// still trail its counter by the entry being applied.
	synced, params := leader.Iteration(), leader.Params()

	// The leader goes dark and moves on without the follower.
	down.Store(true)
	drive(t, leader, "d1", 2)
	waitStatus(t, task, "retrying with an error", func(st hub.ReplicaStatus) bool {
		return st.State == hub.ReplicaRetrying && st.LastError != ""
	})
	if ready, st := task.Ready(); !ready {
		t.Errorf("retrying follower not ready, status %+v", st)
	}
	if got := task.Server().SnapshotVersion(); got != synced {
		t.Errorf("follower serves version %d during the outage, want %d", got, synced)
	}
	if !reflect.DeepEqual(task.Server().Params(), params) {
		t.Error("follower parameters changed during the outage")
	}

	// Leader returns: the follower converges and clears the error. It
	// holds the leader's iteration before the exchange that carried it
	// has ended and published "tailing", so wait for the status first.
	down.Store(false)
	waitStatus(t, task, "tailing with no error", func(st hub.ReplicaStatus) bool {
		return st.State == hub.ReplicaTailing && st.LastError == ""
	})
	waitConverged(t, leader, task)
	requireSameState(t, leader, task.Server())
	if st, _ := task.ReplicaStatus(); st.State != hub.ReplicaTailing || st.LastError != "" {
		t.Errorf("recovered status %+v, want tailing with no error", st)
	}
}

func TestReplicatorStopTransitionsToStopped(t *testing.T) {
	url, leader, _ := newLeader(t)
	drive(t, leader, "d1", 2)
	task, r := newFollower(t, url)
	r.Start(context.Background())
	waitConverged(t, leader, task)
	r.Stop()
	if st, _ := task.ReplicaStatus(); st.State != hub.ReplicaStopped {
		t.Errorf("state after Stop = %q, want stopped", st.State)
	}
}

func TestNewValidation(t *testing.T) {
	h := hub.New()
	leaderTask, err := h.CreateTask(context.Background(), "lead", serverConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed := transport.NewHTTPClient("http://x", nil).WithTask("lead")
	if _, err := New(Config{Feed: feed}); err == nil {
		t.Error("nil Task accepted")
	}
	if _, err := New(Config{Task: leaderTask, Feed: feed}); err == nil {
		t.Error("non-replica task accepted")
	}
	rep, err := h.CreateTask(context.Background(), "rep", serverConfig(), hub.AsReplicaOf("http://x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Task: rep}); err == nil {
		t.Error("nil Feed accepted")
	}
	if _, err := New(Config{Task: rep, Feed: transport.NewHTTPClient("http://x", nil)}); err == nil {
		t.Error("task-unbound Feed accepted")
	}
}

func TestErrorTagging(t *testing.T) {
	base := errors.New("boom")
	e := errOf(CategoryNetwork, "tail", base)
	if !errors.Is(e, base) {
		t.Error("tagged error does not unwrap to its cause")
	}
	want := "replica: tail [network]: boom"
	if e.Error() != want {
		t.Errorf("Error() = %q, want %q", e.Error(), want)
	}
}
