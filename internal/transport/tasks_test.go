package transport

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

// newTwoTaskHandler hosts "alpha" (default) and "beta" on one hub.
func newTwoTaskHandler(t *testing.T) (*Handler, *core.Server, *core.Server) {
	t.Helper()
	h := hub.New()
	mk := func(id string) *core.Server {
		task, err := h.CreateTask(context.Background(), id, core.ServerConfig{
			Model:   model.NewLogisticRegression(2, 2),
			Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
		})
		if err != nil {
			t.Fatalf("CreateTask(%s): %v", id, err)
		}
		return task.Server()
	}
	alpha := mk("alpha")
	beta := mk("beta")
	return NewHandler(h), alpha, beta
}

// TestTaskScopedRoutesAreIsolated proves a checkin on one task's route
// moves only that task.
func TestTaskScopedRoutesAreIsolated(t *testing.T) {
	hd, alpha, beta := newTwoTaskHandler(t)
	ts := httptest.NewServer(hd)
	defer ts.Close()
	ctx := context.Background()
	alphaTok, _ := alpha.RegisterDevice(ctx, "d1")
	betaTok, _ := beta.RegisterDevice(ctx, "d1")

	alphaClient := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	betaClient := NewHTTPClient(ts.URL, nil).WithTask("beta")

	if err := betaClient.Checkin(ctx, "d1", betaTok, checkinReq()); err != nil {
		t.Fatalf("beta checkin: %v", err)
	}
	if got := beta.Iteration(); got != 1 {
		t.Errorf("beta iterations = %d, want 1", got)
	}
	if got := alpha.Iteration(); got != 0 {
		t.Errorf("alpha iterations = %d, want 0 (cross-task leak)", got)
	}

	// Alpha's credentials do not work on beta's route.
	if err := betaClient.Checkin(ctx, "d1", alphaTok, checkinReq()); !errors.Is(err, core.ErrAuth) {
		t.Errorf("cross-task token error = %v, want ErrAuth", err)
	}

	if err := alphaClient.Checkin(ctx, "d1", alphaTok, checkinReq()); err != nil {
		t.Fatalf("task-scoped checkin: %v", err)
	}
	if got := alpha.Iteration(); got != 1 {
		t.Errorf("alpha iterations = %d, want 1", got)
	}
}

// TestClosedTaskStandsDevicesDown: after CloseTask, the task's routes
// answer 409 (ErrStopped), so a remote device latches Done instead of
// retrying a 404 forever.
func TestClosedTaskStandsDevicesDown(t *testing.T) {
	h := hub.New()
	ctx := context.Background()
	m := model.NewLogisticRegression(2, 2)
	task, err := h.CreateTask(ctx, "ending", core.ServerConfig{
		Model:   m,
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	token, _ := task.Server().RegisterDevice(ctx, "d1")
	ts := httptest.NewServer(NewHandler(h))
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("ending")
	dev, err := core.NewDevice(core.DeviceConfig{
		ID: "d1", Token: token, Model: m, Transport: client, Minibatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.AddSample(ctx, model.Sample{X: []float64{1, 0}, Y: 0}); err != nil {
		t.Fatalf("warm-up sample: %v", err)
	}
	if err := h.CloseTask(ctx, "ending"); err != nil {
		t.Fatal(err)
	}
	if err := dev.AddSample(ctx, model.Sample{X: []float64{1, 0}, Y: 0}); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("post-close sample error = %v, want ErrStopped", err)
	}
	if !dev.Done() {
		t.Error("device should latch Done when the task is closed")
	}
}

func TestUnknownTaskIs404(t *testing.T) {
	hd, _, _ := newTwoTaskHandler(t)
	ts := httptest.NewServer(hd)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("ghost")
	if _, err := client.Checkout(context.Background(), "d", "t"); !errors.Is(err, hub.ErrTaskNotFound) {
		t.Errorf("error = %v, want ErrTaskNotFound", err)
	}
	if err := client.Checkin(context.Background(), "d", "t", checkinReq()); !errors.Is(err, hub.ErrTaskNotFound) {
		t.Errorf("error = %v, want ErrTaskNotFound", err)
	}
}

// TestUnscopedRoutesAreGone: the device protocol exists only under
// /v1/tasks/{id}/ — the un-scoped paths earlier releases aliased to a
// default task are not routed at all, and a client that was never bound
// to a task says so instead of guessing one.
func TestUnscopedRoutesAreGone(t *testing.T) {
	hd, _, _ := newTwoTaskHandler(t)
	hd.EnableEnrollment("join")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	for _, route := range []struct{ method, path string }{
		{http.MethodGet, "/v1/checkout"},
		{http.MethodPost, "/v1/checkin"},
		{http.MethodGet, "/v1/stats"},
		{http.MethodPost, "/v1/register"},
	} {
		req, _ := http.NewRequest(route.method, ts.URL+route.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", route.method, route.path, resp.StatusCode)
		}
	}
	ctx := context.Background()
	unbound := NewHTTPClient(ts.URL, nil)
	_, checkoutErr := unbound.Checkout(ctx, "d", "t")
	_, statsErr := unbound.Stats(ctx)
	_, registerErr := unbound.Register(ctx, "d", "join")
	_, checkpointErr := unbound.FetchCheckpoint(ctx)
	for call, err := range map[string]error{
		"Checkout": checkoutErr, "Checkin": unbound.Checkin(ctx, "d", "t", checkinReq()),
		"Stats": statsErr, "Register": registerErr, "FetchCheckpoint": checkpointErr,
		"AuthProbe": unbound.AuthProbe(ctx, "d", "t"),
	} {
		if err == nil || !strings.Contains(err.Error(), "needs a task-bound client (WithTask)") {
			t.Errorf("%s on an unbound client = %v, want the WithTask error", call, err)
		}
	}
}

func TestTaskListing(t *testing.T) {
	hd, alpha, _ := newTwoTaskHandler(t)
	ts := httptest.NewServer(hd)
	defer ts.Close()
	ctx := context.Background()
	tok, _ := alpha.RegisterDevice(ctx, "d1")
	if err := NewHTTPClient(ts.URL, nil).WithTask("alpha").Checkin(ctx, "d1", tok, checkinReq()); err != nil {
		t.Fatal(err)
	}
	tasks, err := NewHTTPClient(ts.URL, nil).Tasks(ctx)
	if err != nil {
		t.Fatalf("Tasks: %v", err)
	}
	if len(tasks) != 2 || tasks[0].ID != "alpha" || tasks[1].ID != "beta" {
		t.Fatalf("listing = %+v", tasks)
	}
	if tasks[0].Iteration != 1 || tasks[0].ErrorEstimate == nil {
		t.Errorf("alpha summary = %+v", tasks[0])
	}
}

func TestStatsIncludesTaskID(t *testing.T) {
	hd, _, _ := newTwoTaskHandler(t)
	ts := httptest.NewServer(hd)
	defer ts.Close()
	for path, want := range map[string]string{
		taskPath("beta", "stats"):  `"taskId":"beta"`,
		taskPath("alpha", "stats"): `"taskId":"alpha"`,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 1024)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
		if got := string(body[:n]); !strings.Contains(got, want) {
			t.Errorf("%s body = %s, want %s", path, got, want)
		}
	}
}

// TestJSONContentType verifies every JSON-speaking response (success and
// error alike) declares its content type.
func TestJSONContentType(t *testing.T) {
	hd, alpha, _ := newTwoTaskHandler(t)
	ts := httptest.NewServer(hd)
	defer ts.Close()
	tok, _ := alpha.RegisterDevice(context.Background(), "d1")

	get := func(path, device, token string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set(headerDeviceID, device)
		req.Header.Set(headerToken, token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	cases := []struct {
		name string
		resp *http.Response
		code int
	}{
		{"stats", get(taskPath("alpha", "stats"), "", ""), http.StatusOK},
		{"listing", get(PathTasks, "", ""), http.StatusOK},
		{"checkout ok", get(taskPath("alpha", "checkout"), "d1", tok), http.StatusOK},
		{"checkout auth error", get(taskPath("alpha", "checkout"), "ghost", "bad"), http.StatusUnauthorized},
		{"unknown task", get(taskPath("ghost", "stats"), "", ""), http.StatusNotFound},
	}
	for _, tc := range cases {
		if tc.resp.StatusCode != tc.code {
			t.Errorf("%s status = %d, want %d", tc.name, tc.resp.StatusCode, tc.code)
		}
		if ct := tc.resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s Content-Type = %q, want application/json", tc.name, ct)
		}
	}
}

// TestHTTPClientContextCancellationMidRequest proves the client aborts a
// request already in flight when its context is cancelled: the server
// deliberately stalls until the test unblocks it.
func TestHTTPClientContextCancellationMidRequest(t *testing.T) {
	release := make(chan struct{})
	stalled := make(chan struct{}, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stalled <- struct{}{}
		<-release // hold the request open past cancellation
	}))
	defer ts.Close()
	defer close(release)

	client := NewHTTPClient(ts.URL, nil).WithTask("stalled")
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Checkout(ctx, "d1", "tok")
		errCh <- err
	}()
	<-stalled // the request reached the server…
	cancel()  // …now cancel it mid-flight
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not abort on context cancellation")
	}

	// Checkin path honors deadlines the same way.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer dcancel()
	if err := client.Checkin(dctx, "d1", "tok", checkinReq()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("checkin error = %v, want context.DeadlineExceeded", err)
	}
}
