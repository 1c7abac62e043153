package transport

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// newLeader hosts task "alpha" with a journal in memory and
// returns the handler, the task's server, and the store.
func newLeader(t *testing.T) (*Handler, *core.Server, *store.FileStore) {
	t.Helper()
	st := store.NewMemStore()
	h := hub.New()
	task, err := h.CreateTask(context.Background(), "alpha", core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	}, hub.WithStore(st))
	if err != nil {
		t.Fatalf("CreateTask: %v", err)
	}
	return NewHandler(h), task.Server(), st
}

func TestJournalFeedStreamsEntries(t *testing.T) {
	hd, srv, _ := newLeader(t)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	for i := 0; i < 5; i++ {
		if err := srv.Checkin(ctx, "d1", token, checkinReq()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(hd)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")

	feed, err := client.OpenJournalFeed(ctx, 0)
	if err != nil {
		t.Fatalf("OpenJournalFeed: %v", err)
	}
	defer feed.Close()
	var got []int
	for {
		e, err := feed.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, e.Iteration)
	}
	if len(got) != 5 {
		t.Fatalf("streamed %d entries, want 5: %v", len(got), got)
	}
	for i, it := range got {
		if it != i+1 {
			t.Errorf("entry %d has iteration %d, want %d", i, it, i+1)
		}
	}
	if feed.LeaderIteration() != 5 {
		t.Errorf("LeaderIteration = %d, want 5", feed.LeaderIteration())
	}
}

func TestJournalFeedAfterSkipsPrefix(t *testing.T) {
	hd, srv, _ := newLeader(t)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	for i := 0; i < 4; i++ {
		if err := srv.Checkin(ctx, "d1", token, checkinReq()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(hd)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	feed, err := client.OpenJournalFeed(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	first, err := feed.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	// Cursor granularity is whole segments; the stream may lead with
	// entries at or below `after` but must include everything past it.
	n := 0
	for it := first.Iteration; ; {
		if it > 2 {
			n++
		}
		e, err := feed.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		it = e.Iteration
	}
	if n != 2 {
		t.Errorf("entries past iteration 2 = %d, want 2", n)
	}
}

func TestJournalFeedNoStore(t *testing.T) {
	hd, _ := newHandler(t) // no WithStore
	ts := httptest.NewServer(hd)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	if _, err := client.OpenJournalFeed(context.Background(), 0); !errors.Is(err, hub.ErrTaskNotFound) {
		t.Errorf("feed without store: err = %v, want ErrTaskNotFound (404)", err)
	}
	if _, err := client.FetchCheckpoint(context.Background()); !errors.Is(err, hub.ErrTaskNotFound) {
		t.Errorf("checkpoint without store: err = %v, want ErrTaskNotFound (404)", err)
	}
}

func TestFetchCheckpoint(t *testing.T) {
	hd, srv, st := newLeader(t)
	ctx := context.Background()
	ts := httptest.NewServer(hd)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")

	if _, err := client.FetchCheckpoint(ctx); !errors.Is(err, store.ErrNoCheckpoint) {
		t.Fatalf("empty store: err = %v, want ErrNoCheckpoint", err)
	}

	token, _ := srv.RegisterDevice(ctx, "d1")
	if err := srv.Checkin(ctx, "d1", token, checkinReq()); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(ctx, srv.ExportState(), time.Now()); err != nil {
		t.Fatal(err)
	}
	cp, err := client.FetchCheckpoint(ctx)
	if err != nil {
		t.Fatalf("FetchCheckpoint: %v", err)
	}
	if cp.State == nil || cp.State.Iteration != 1 {
		t.Errorf("unexpected checkpoint %+v", cp)
	}
	// On the wire it is the frame the store holds, under its own type.
	resp, err := http.Get(ts.URL + alphaPath("checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeFrame || !strings.HasPrefix(string(body), "CMW1") {
		t.Errorf("checkpoint reply is %q starting %q, want a %s frame", ct, body[:min(len(body), 4)], ContentTypeFrame)
	}
}

// TestFetchCheckpointFromOlderLeader: a leader from before the checkpoint
// frame answers with the JSON document, which this release no longer
// reads. The error names what the leader sent and hints at the older
// release instead of only calling it a corrupt frame.
func TestFetchCheckpointFromOlderLeader(t *testing.T) {
	ctx := context.Background()
	_, srv, _ := newLeader(t)
	doc, err := json.Marshal(store.Checkpoint{SavedAtUnixMillis: 5, State: srv.ExportState()})
	if err != nil {
		t.Fatal(err)
	}
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(doc, '\n')) // json.Encoder's line, as the older handler wrote it
	}))
	defer old.Close()
	cp, err := NewHTTPClient(old.URL, nil).WithTask("alpha").FetchCheckpoint(ctx)
	if cp != nil || !errors.Is(err, wirecodec.ErrFrame) ||
		!strings.Contains(err.Error(), `"application/json"`) || !strings.Contains(err.Error(), "older release") {
		t.Errorf("FetchCheckpoint from a JSON leader = %+v, %v; want ErrFrame with the reply's type and the older-release hint", cp, err)
	}
}

func TestReadOnlyReplicaRejectsWrites(t *testing.T) {
	h := hub.New()
	_, err := h.CreateTask(context.Background(), "alpha", core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	}, hub.AsReplicaOf("http://leader.example:8080"))
	if err != nil {
		t.Fatal(err)
	}
	hd := NewHandler(h)
	hd.EnableEnrollment("secret")
	ts := httptest.NewServer(hd)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+taskPath("alpha", "checkin"), strings.NewReader("{}"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("replica checkin status = %d, want 409", resp.StatusCode)
	}
	if got := resp.Header.Get(headerLeader); got != "http://leader.example:8080" {
		t.Errorf("leader hint = %q", got)
	}

	req, _ = http.NewRequest(http.MethodPost, ts.URL+taskPath("alpha", "register"),
		strings.NewReader(`{"deviceId":"d1"}`))
	req.Header.Set(headerEnrollKey, "secret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("replica register status = %d, want 409", resp.StatusCode)
	}

	// The client maps the 409 onto the stand-down sentinel.
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	if err := client.Checkin(context.Background(), "d", "t", checkinReq()); !errors.Is(err, core.ErrStopped) {
		t.Errorf("client checkin err = %v, want ErrStopped", err)
	}
}

func TestReplicaTaskRejectsStore(t *testing.T) {
	h := hub.New()
	_, err := h.CreateTask(context.Background(), "alpha", core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	}, hub.AsReplicaOf("http://leader"), hub.WithStore(store.NewMemStore()))
	if err == nil {
		t.Fatal("AsReplicaOf + WithStore should be rejected")
	}
}

func TestAuthProbe(t *testing.T) {
	hd, srv := newHandler(t)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	if err := client.AuthProbe(ctx, "d1", token); err != nil {
		t.Errorf("valid credentials: %v", err)
	}
	if err := client.AuthProbe(ctx, "d1", "wrong"); !errors.Is(err, core.ErrAuth) {
		t.Errorf("bad token: err = %v, want ErrAuth", err)
	}
}

// TestAuthProbeIsNotACheckout: the probe authenticates and does nothing
// else — no parameters encoded, no checkout counted — and a bad token
// still gets 401, on a plain task and on a sharded one, where the member
// owning the device decides.
func TestAuthProbeIsNotACheckout(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	h := hub.New()
	task, err := h.CreateTask(ctx, "alpha", core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	}, hub.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	token, _ := task.Server().RegisterDevice(ctx, "d1")
	ts := httptest.NewServer(NewHandler(h))
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	if err := client.AuthProbe(ctx, "d1", token); err != nil {
		t.Errorf("valid credentials: %v", err)
	}
	if err := client.AuthProbe(ctx, "d1", "wrong"); !errors.Is(err, core.ErrAuth) {
		t.Errorf("bad token: err = %v, want ErrAuth", err)
	}
	checkouts := reg.Counter("crowdml_checkouts_total", "Successful parameter checkouts.", telemetry.L("task", "alpha"))
	if n := checkouts.Value(); n != 0 {
		t.Errorf("two auth probes counted %d checkouts, want 0", n)
	}
	if _, err := client.Checkout(ctx, "d1", token); err != nil || checkouts.Value() != 1 {
		t.Errorf("a real checkout: %v, counted %d, want 1", err, checkouts.Value())
	}

	shd, _ := newShardedHandler(t)
	shd.EnableEnrollment("k")
	sts := httptest.NewServer(shd)
	defer sts.Close()
	sharded := NewHTTPClient(sts.URL, nil).WithTask("act")
	// device-002 hashes to shard 0, device-001 to shard 1 (golden map).
	tok0, err := sharded.Register(ctx, "device-002", "k")
	if err != nil {
		t.Fatal(err)
	}
	tok1, err := sharded.Register(ctx, "device-001", "k")
	if err != nil {
		t.Fatal(err)
	}
	for id, tok := range map[string]string{"device-002": tok0, "device-001": tok1} {
		if err := sharded.AuthProbe(ctx, id, tok); err != nil {
			t.Errorf("sharded task, %s's own credentials: %v", id, err)
		}
	}
	if err := sharded.AuthProbe(ctx, "device-002", tok1); !errors.Is(err, core.ErrAuth) {
		t.Errorf("sharded task, another shard's token: err = %v, want ErrAuth", err)
	}
}

func TestRetryRecoversFromTransient5xx(t *testing.T) {
	hd, srv := newHandler(t)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	var calls atomic.Int32
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "backend overloaded", http.StatusServiceUnavailable)
			return
		}
		hd.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha").WithRetry(RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	})
	if _, err := client.Checkout(context.Background(), "d1", token); err != nil {
		t.Fatalf("Checkout with retry: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("attempts = %d, want 3 (2 failures + 1 success)", n)
	}
}

// TestAuthProbeRetriesTransient5xx: the follower's credential probe goes
// through the client's retry policy — one passing 503 from the leader is
// not a 401 for a correctly credentialed device — while a bad token is
// answered after one attempt, never retried.
func TestAuthProbeRetriesTransient5xx(t *testing.T) {
	hd, srv := newHandler(t)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	var heads, failed atomic.Int32
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			heads.Add(1)
			if failed.CompareAndSwap(0, 1) {
				http.Error(w, "leader restarting", http.StatusServiceUnavailable)
				return
			}
		}
		hd.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha").WithRetry(RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	})
	ctx := context.Background()
	if err := client.AuthProbe(ctx, "d1", token); err != nil {
		t.Fatalf("probe after one 503: %v", err)
	}
	if n := heads.Load(); n != 2 {
		t.Errorf("probe attempts = %d, want 2 (one 503, one answer)", n)
	}
	heads.Store(0)
	if err := client.AuthProbe(ctx, "d1", "wrong"); !errors.Is(err, core.ErrAuth) {
		t.Errorf("bad token: err = %v, want ErrAuth", err)
	}
	if n := heads.Load(); n != 1 {
		t.Errorf("bad-token probe attempts = %d, want 1 (401 is not retried)", n)
	}
}

// TestRetryPolicyDelay pins the one jittered backoff: under the defaults
// the n-th wait lies in [d/2, d] with d = min(100ms·2^(n−1), 2s), and a
// client built without WithRetry reports exactly those defaults.
func TestRetryPolicyDelay(t *testing.T) {
	p := NewHTTPClient("http://leader", nil).RetryPolicy()
	if want := (RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}); p != want {
		t.Fatalf("RetryPolicy() without WithRetry = %+v, want %+v", p, want)
	}
	for _, tc := range []struct {
		attempt int
		d       time.Duration
	}{
		{1, 100 * time.Millisecond}, {2, 200 * time.Millisecond}, {3, 400 * time.Millisecond},
		{4, 800 * time.Millisecond}, {5, 1600 * time.Millisecond}, {6, 2 * time.Second},
		{7, 2 * time.Second}, {8, 2 * time.Second},
	} {
		for i := 0; i < 1000; i++ {
			if got := p.Delay(tc.attempt); got < tc.d/2 || got > tc.d {
				t.Fatalf("Delay(%d) = %v, want within [%v, %v]", tc.attempt, got, tc.d/2, tc.d)
			}
		}
	}
}

func TestRetryGivesUpAfterBudget(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithRetry(RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	})
	_, err := client.Tasks(context.Background())
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	// The final attempt's response is returned as-is (a non-2xx status),
	// so the two earlier attempts were retried and the third surfaced.
	if n := calls.Load(); n != 3 {
		t.Errorf("attempts = %d, want 3", n)
	}
}

func TestRetryDoesNotRetryApplicationErrors(t *testing.T) {
	hd, _ := newHandler(t)
	var calls atomic.Int32
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		hd.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(counting)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha").WithRetry(RetryPolicy{
		MaxAttempts: 5, BaseDelay: time.Millisecond,
	})
	if _, err := client.Checkout(context.Background(), "ghost", "bad"); !errors.Is(err, core.ErrAuth) {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("401 was retried: %d attempts", n)
	}
}

func TestRetryRespectsContextCancel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithRetry(RetryPolicy{
		MaxAttempts: 100, BaseDelay: 50 * time.Millisecond, MaxDelay: 50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Tasks(ctx)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded in chain", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("retry loop ignored the context for %v", elapsed)
	}
}

func TestHealthzLeader(t *testing.T) {
	hd, srv := newHandler(t)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	if err := srv.Checkin(context.Background(), "d1", token, checkinReq()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hd)
	defer ts.Close()
	resp, err := http.Get(ts.URL + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("leader healthz status = %d, want 200", resp.StatusCode)
	}
	hr, err := NewHTTPClient(ts.URL, nil).Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || len(hr.Tasks) != 1 {
		t.Fatalf("unexpected health %+v", hr)
	}
	row := hr.Tasks[0]
	if row.Role != "leader" || !row.Ready || row.Iteration != 1 {
		t.Errorf("unexpected task row %+v", row)
	}
}

func TestHealthzFollower(t *testing.T) {
	h := hub.New()
	task, err := h.CreateTask(context.Background(), "alpha", core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	}, hub.AsReplicaOf("http://leader:8080"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(h))
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil)

	// No status published yet: the follower is not ready.
	hr, err := client.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hr.Status != "unavailable" || hr.Tasks[0].Ready {
		t.Errorf("follower without a status should be unavailable, got %+v", hr)
	}
	resp, _ := http.Get(ts.URL + PathHealthz)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}

	// A tailing status flips it ready and reports lag.
	task.SetReplicaStatus(hub.ReplicaStatus{State: hub.ReplicaTailing, LeaderIteration: 7})
	hr, err = client.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	row := hr.Tasks[0]
	if hr.Status != "ok" || !row.Ready || row.Role != "follower" {
		t.Fatalf("tailing follower should be ready, got %+v", hr)
	}
	if row.ReplicationLag == nil || *row.ReplicationLag != 7 {
		t.Errorf("lag = %v, want 7 (leader at 7, local at 0)", row.ReplicationLag)
	}
	if row.LeaderURL != "http://leader:8080" || row.ReplicaState != hub.ReplicaTailing {
		t.Errorf("unexpected follower row %+v", row)
	}
}

func TestStatsClient(t *testing.T) {
	hd, srv := newHandler(t)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	if err := srv.Checkin(context.Background(), "d1", token, checkinReq()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hd)
	defer ts.Close()
	stats, err := NewHTTPClient(ts.URL, nil).WithTask("alpha").Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.TaskID != "alpha" || stats.Iteration != 1 {
		t.Errorf("unexpected stats %+v", stats)
	}
}
