package crowdml_test

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	crowdml "github.com/crowdml/crowdml"
)

// TestPublicAPIEndToEnd drives the full public surface: build a model,
// server, loopback device with privacy, stream samples, read progress.
func TestPublicAPIEndToEnd(t *testing.T) {
	m := crowdml.NewLogisticRegression(2, 4)
	server, err := crowdml.NewServer(crowdml.ServerConfig{
		Model:   m,
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 5}, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	token, err := server.RegisterDevice(ctx, "phone-1")
	if err != nil {
		t.Fatal(err)
	}
	device, err := crowdml.NewDevice(crowdml.DeviceConfig{
		ID: "phone-1", Token: token, Model: m,
		Transport: server,
		Minibatch: 2,
		Budget:    crowdml.Budget{Gradient: crowdml.FromInv(0.01)}, // ε=100, mild
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		y := i % 2
		x := []float64{0.1, 0.1, 0.1, 0.1}
		x[y] = 1
		crowdml.NormalizeL1(x)
		if err := device.AddSample(ctx, crowdml.Sample{X: x, Y: y}); err != nil {
			t.Fatalf("AddSample %d: %v", i, err)
		}
	}
	if server.Iteration() != 100 {
		t.Errorf("iterations = %d, want 100", server.Iteration())
	}
	est, ok := server.ErrEstimate()
	if !ok {
		t.Fatal("no error estimate")
	}
	// Separable task with mild noise: online error should be modest.
	if est > 0.5 {
		t.Errorf("online error estimate = %v", est)
	}
}

func TestPublicAPIHTTPWithEnrollment(t *testing.T) {
	m := crowdml.NewLogisticRegression(2, 2)
	hub := crowdml.NewHub()
	ctx := context.Background()
	task, err := hub.CreateTask(ctx, "api-test", crowdml.ServerConfig{
		Model:   m,
		Updater: crowdml.NewSGD(crowdml.Constant{C: 0.5}, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	server := task.Server()
	ts := httptest.NewServer(crowdml.NewHTTPHandler(hub, "join-key", nil))
	defer ts.Close()

	client := crowdml.NewHTTPClient(ts.URL, nil).WithTask("api-test")
	token, err := client.Register(ctx, "phone-2", "join-key")
	if err != nil {
		t.Fatal(err)
	}
	device, err := crowdml.NewDevice(crowdml.DeviceConfig{
		ID: "phone-2", Token: token, Model: m,
		Transport: client, Minibatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := device.AddSample(ctx, crowdml.Sample{X: []float64{1, 0}, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if server.Iteration() != 1 {
		t.Error("HTTP device checkin did not update the server")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	m := crowdml.NewLogisticRegression(2, 2)
	server, err := crowdml.NewServer(crowdml.ServerConfig{
		Model:   m,
		Updater: crowdml.NewSGD(crowdml.Constant{C: 1}, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Checkout(context.Background(), "nobody", "tok"); !errors.Is(err, crowdml.ErrAuth) {
		t.Errorf("error = %v, want ErrAuth", err)
	}
}

func TestPublicAPIAdaGradAndModels(t *testing.T) {
	if u := crowdml.NewAdaGrad(0.1, 1); u == nil || u.Name() == "" {
		t.Error("NewAdaGrad returned unusable updater")
	}
	if m := crowdml.NewLinearSVM(3, 5); m.GradientSensitivity() != 4 {
		t.Error("SVM sensitivity")
	}
	if m := crowdml.NewRidgeRegression(4, 0.5, 0.1); m.GradientSensitivity() != 1 {
		t.Error("ridge sensitivity")
	}
}

func TestNormalizeL1(t *testing.T) {
	x := []float64{2, -2}
	crowdml.NormalizeL1(x)
	if math.Abs(x[0]-0.5) > 1e-12 || math.Abs(x[1]+0.5) > 1e-12 {
		t.Errorf("normalized = %v", x)
	}
	zero := []float64{0, 0}
	crowdml.NormalizeL1(zero)
	if zero[0] != 0 || zero[1] != 0 {
		t.Error("zero vector must be unchanged")
	}
}

func TestBudgetComposition(t *testing.T) {
	b := crowdml.Budget{
		Gradient:   crowdml.Eps(1),
		ErrCount:   crowdml.Eps(0.01),
		LabelCount: crowdml.Eps(0.001),
	}
	total := b.Total(10)
	if math.Abs(float64(total)-(1+0.01+10*0.001)) > 1e-12 {
		t.Errorf("Total = %v", total)
	}
}

// TestHTTPHandlerMetricsRoute: the handler serves /v1/metrics only when
// it is given a registry.
func TestHTTPHandlerMetricsRoute(t *testing.T) {
	for _, tc := range []struct {
		reg  *crowdml.MetricsRegistry
		want int
	}{{nil, http.StatusNotFound}, {crowdml.NewMetricsRegistry(), http.StatusOK}} {
		rec := httptest.NewRecorder()
		crowdml.NewHTTPHandler(crowdml.NewHub(), "", tc.reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		if rec.Code != tc.want {
			t.Errorf("registry %v: GET /v1/metrics = %d, want %d", tc.reg != nil, rec.Code, tc.want)
		}
	}
}

// TestActivitySimulator: the facade's activity task hands out samples a
// device of ActivityClasses × ActivityFeatureDim accepts, one name per
// class.
func TestActivitySimulator(t *testing.T) {
	if n := len(crowdml.ActivityNames()); n != crowdml.ActivityClasses {
		t.Fatalf("%d names for %d classes", n, crowdml.ActivityClasses)
	}
	m := crowdml.NewLogisticRegression(crowdml.ActivityClasses, crowdml.ActivityFeatureDim)
	server, err := crowdml.NewServer(crowdml.ServerConfig{Model: m, Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 10}, 0)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	token, err := server.RegisterDevice(ctx, "phone")
	if err != nil {
		t.Fatal(err)
	}
	device, err := crowdml.NewDevice(crowdml.DeviceConfig{ID: "phone", Token: token, Model: m, Transport: server, Minibatch: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sent, err := device.Run(ctx, crowdml.NewActivitySimulator(1), 50); err != nil || sent != 50 {
		t.Fatalf("Run = %d, %v; want 50 samples", sent, err)
	}
	if got := server.Iteration(); got != 10 {
		t.Errorf("iteration %d, want 10", got)
	}
}
