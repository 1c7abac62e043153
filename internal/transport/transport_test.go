package transport

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

func newServer(t *testing.T) *core.Server {
	t.Helper()
	s, err := core.NewServer(core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s
}

// newHandler hosts a fresh classes×dim logistic-regression server as the
// hub's task "alpha" and returns the HTTP handler plus the task's server.
func newHandler(t *testing.T, classes, dim int, opts ...hub.TaskOption) (*Handler, *core.Server) {
	t.Helper()
	h := hub.New()
	task, err := h.CreateTask(context.Background(), "alpha", core.ServerConfig{
		Model:   model.NewLogisticRegression(classes, dim),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	}, opts...)
	if err != nil {
		t.Fatalf("CreateTask: %v", err)
	}
	return NewHandler(h), task.Server()
}

// alphaPath is one of the routes of the task newHandler hosts.
func alphaPath(name string) string { return taskPath("alpha", name) }

func checkinReq() *core.CheckinRequest {
	return &core.CheckinRequest{
		Grad:        []float64{1, 0, 0, 0},
		NumSamples:  1,
		LabelCounts: []int{1, 0},
	}
}

// TestLoopbackRoundTrip: in process, the server is the device's
// transport.
func TestLoopbackRoundTrip(t *testing.T) {
	srv := newServer(t)
	token, err := srv.RegisterDevice(context.Background(), "d1")
	if err != nil {
		t.Fatal(err)
	}
	var lb core.Transport = srv
	ctx := context.Background()
	co, err := lb.Checkout(ctx, "d1", token)
	if err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	if len(co.Params) != 4 {
		t.Errorf("params length %d, want 4", len(co.Params))
	}
	if err := lb.Checkin(ctx, "d1", token, checkinReq()); err != nil {
		t.Fatalf("Checkin: %v", err)
	}
	if srv.Iteration() != 1 {
		t.Error("checkin did not reach the server")
	}
}

func TestLoopbackRespectsContext(t *testing.T) {
	srv := newServer(t)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	var lb core.Transport = srv
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lb.Checkout(ctx, "d1", token); !errors.Is(err, context.Canceled) {
		t.Errorf("Checkout error = %v, want context.Canceled", err)
	}
	if err := lb.Checkin(ctx, "d1", token, checkinReq()); !errors.Is(err, context.Canceled) {
		t.Errorf("Checkin error = %v, want context.Canceled", err)
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")

	co, err := client.Checkout(ctx, "d1", token)
	if err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	if len(co.Params) != 4 || co.Version != 0 {
		t.Errorf("unexpected checkout %+v", co)
	}
	if err := client.Checkin(ctx, "d1", token, checkinReq()); err != nil {
		t.Fatalf("Checkin: %v", err)
	}
	if srv.Iteration() != 1 {
		t.Error("HTTP checkin did not reach server")
	}
	// Second checkout observes the update.
	co2, err := client.Checkout(ctx, "d1", token)
	if err != nil {
		t.Fatal(err)
	}
	if co2.Version != 1 {
		t.Errorf("version = %d, want 1", co2.Version)
	}
	if co2.Params[0] == 0 {
		t.Error("parameters did not change after update")
	}
}

func TestHTTPAuthErrors(t *testing.T) {
	hd, _ := newHandler(t, 2, 2)
	ts := httptest.NewServer(hd)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	ctx := context.Background()
	if _, err := client.Checkout(ctx, "ghost", "bad"); !errors.Is(err, core.ErrAuth) {
		t.Errorf("Checkout error = %v, want ErrAuth", err)
	}
	if err := client.Checkin(ctx, "ghost", "bad", checkinReq()); !errors.Is(err, core.ErrAuth) {
		t.Errorf("Checkin error = %v, want ErrAuth", err)
	}
}

func TestHTTPBadCheckin(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	bad := &core.CheckinRequest{Grad: []float64{1}, LabelCounts: []int{0, 0}}
	if err := client.Checkin(context.Background(), "d1", token, bad); !errors.Is(err, core.ErrBadCheckin) {
		t.Errorf("error = %v, want ErrBadCheckin", err)
	}
}

func TestHTTPStoppedMapsToErrStopped(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	srv.Stop()
	ts := httptest.NewServer(hd)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	if err := client.Checkin(context.Background(), "d1", token, checkinReq()); !errors.Is(err, core.ErrStopped) {
		t.Errorf("error = %v, want ErrStopped", err)
	}
	co, err := client.Checkout(context.Background(), "d1", token)
	if err != nil {
		t.Fatalf("stopped checkout should still answer: %v", err)
	}
	if !co.Done {
		t.Error("stopped checkout should set Done")
	}
}

func TestHTTPStatsEndpoint(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	if err := client.Checkin(context.Background(), "d1", token, checkinReq()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + alphaPath("stats"))
	if err != nil {
		t.Fatalf("stats GET: %v", err)
	}
	defer resp.Body.Close()
	var stats struct {
		Iteration     int       `json:"iteration"`
		Stopped       bool      `json:"stopped"`
		ErrorEstimate *float64  `json:"errorEstimate"`
		PriorEstimate []float64 `json:"priorEstimate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Iteration != 1 {
		t.Errorf("iteration = %d, want 1", stats.Iteration)
	}
	if stats.ErrorEstimate == nil {
		t.Error("missing error estimate")
	}
	if len(stats.PriorEstimate) != 2 {
		t.Errorf("prior estimate = %v", stats.PriorEstimate)
	}
}

func TestHTTPMethodEnforcement(t *testing.T) {
	hd, _ := newHandler(t, 2, 2)
	ts := httptest.NewServer(hd)
	defer ts.Close()
	tests := []struct {
		method, path string
		allow        string
	}{
		{method: http.MethodPost, path: alphaPath("checkout"), allow: "GET"},
		{method: http.MethodGet, path: alphaPath("checkin"), allow: "POST"},
		{method: http.MethodPost, path: alphaPath("stats"), allow: "GET"},
		{method: http.MethodPost, path: taskPath("alpha", "checkout"), allow: "GET"},
		{method: http.MethodGet, path: taskPath("alpha", "checkin"), allow: "POST"},
		{method: http.MethodDelete, path: PathTasks, allow: "GET"},
	}
	for _, tt := range tests {
		req, _ := http.NewRequest(tt.method, ts.URL+tt.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tt.method, tt.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s status = %d, want 405", tt.method, tt.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, tt.allow) {
			t.Errorf("%s %s Allow = %q, want it to contain %q", tt.method, tt.path, allow, tt.allow)
		}
	}
}

func TestHTTPBadJSON(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+alphaPath("checkin"), strings.NewReader("{not json"))
	req.Header.Set(headerDeviceID, "d1")
	req.Header.Set(headerToken, token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestDeviceOverHTTP(t *testing.T) {
	// Full Algorithm 1 device driving a real HTTP server — the networked
	// prototype end to end.
	m := model.NewLogisticRegression(2, 2)
	h := hub.New()
	task, err := h.CreateTask(context.Background(), "phones", core.ServerConfig{
		Model:   m,
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := task.Server()
	token, _ := srv.RegisterDevice(context.Background(), "phone-1")
	ts := httptest.NewServer(NewHandler(h))
	defer ts.Close()

	dev, err := core.NewDevice(core.DeviceConfig{
		ID: "phone-1", Token: token, Model: m,
		Transport: NewHTTPClient(ts.URL, nil).WithTask("phones"),
		Minibatch: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		y := i % 2
		x := []float64{1, 0}
		if y == 1 {
			x = []float64{0, 1}
		}
		if err := dev.AddSample(ctx, model.Sample{X: x, Y: y}); err != nil {
			t.Fatalf("AddSample %d: %v", i, err)
		}
	}
	if srv.Iteration() != 5 {
		t.Errorf("server iterations = %d, want 5", srv.Iteration())
	}
	rows := srv.ExportStateInto(nil).DeviceRows
	if i := slices.IndexFunc(rows, func(r core.DeviceRow) bool { return r.ID == "phone-1" }); i < 0 || rows[i].Samples != 25 {
		t.Errorf("phone-1 missing or samples != 25: %+v", rows)
	}
}

// Property: the JSON wire encoding of a checkin is lossless for any
// payload shape — what the device sanitizes is exactly what the server
// applies.
func TestCheckinWireRoundTripProperty(t *testing.T) {
	f := func(grad []float64, ns uint16, errCount int16, labels []int16, version uint16) bool {
		for i, v := range grad {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				grad[i] = 0
			}
		}
		in := core.CheckinRequest{
			Grad:        grad,
			NumSamples:  int(ns),
			ErrCount:    int(errCount),
			LabelCounts: make([]int, len(labels)),
			Version:     int(version),
		}
		for i, l := range labels {
			in.LabelCounts[i] = int(l)
		}
		payload, err := json.Marshal(&in)
		if err != nil {
			return false
		}
		var out core.CheckinRequest
		if err := json.Unmarshal(payload, &out); err != nil {
			return false
		}
		if out.NumSamples != in.NumSamples || out.ErrCount != in.ErrCount ||
			out.Version != in.Version || len(out.Grad) != len(in.Grad) ||
			len(out.LabelCounts) != len(in.LabelCounts) {
			return false
		}
		for i := range in.Grad {
			if out.Grad[i] != in.Grad[i] {
				return false
			}
		}
		for i := range in.LabelCounts {
			if out.LabelCounts[i] != in.LabelCounts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
