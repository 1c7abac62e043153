package crowdml_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	crowdml "github.com/crowdml/crowdml"
	"github.com/crowdml/crowdml/internal/activity"
	"github.com/crowdml/crowdml/internal/metrics"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/rng"
)

// flakyTransport drops a deterministic fraction of checkouts and checkins —
// the network-outage injection for the Remark 1 resilience test.
type flakyTransport struct {
	inner    crowdml.Transport
	r        *rng.RNG
	dropRate float64
	drops    int
}

var errInjected = errors.New("injected network failure")

func (f *flakyTransport) Checkout(ctx context.Context, id, token string) (*crowdml.CheckoutResponse, error) {
	if f.r.Float64() < f.dropRate {
		f.drops++
		return nil, errInjected
	}
	return f.inner.Checkout(ctx, id, token)
}

func (f *flakyTransport) Checkin(ctx context.Context, id, token string, req *crowdml.CheckinRequest) error {
	if f.r.Float64() < f.dropRate {
		f.drops++
		return errInjected
	}
	return f.inner.Checkin(ctx, id, token, req)
}

// TestIntegrationFailureInjection verifies the paper's Remark 1: checkout
// and checkin failures are non-critical — the device retains samples and
// the crowd still learns once connectivity returns.
func TestIntegrationFailureInjection(t *testing.T) {
	m := crowdml.NewLogisticRegression(activity.NumClasses, activity.FeatureDim)
	server, err := crowdml.NewServer(crowdml.ServerConfig{
		Model:   m,
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 10}, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	token, _ := server.RegisterDevice(ctx, "flaky-phone")
	flaky := &flakyTransport{
		inner: server, r: rng.New(1), dropRate: 0.4,
	}
	device, err := crowdml.NewDevice(crowdml.DeviceConfig{
		ID: "flaky-phone", Token: token, Model: m,
		Transport: flaky, Minibatch: 2, MaxBuffer: 64, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := activity.NewGenerator(2)
	delivered := 0
	for i := 0; i < 300; i++ {
		s, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		err = device.AddSample(ctx, s)
		switch {
		case err == nil:
			delivered++
		case errors.Is(err, errInjected):
			// Expected: buffered samples are retained for retry.
		case errors.Is(err, crowdml.ErrBufferFull):
			// Long outage streaks can fill the buffer; also acceptable.
		default:
			t.Fatalf("sample %d: unexpected error %v", i, err)
		}
	}
	if flaky.drops == 0 {
		t.Fatal("injection did not fire")
	}
	st := server.ExportState().Devices["flaky-phone"]
	// Despite 40% drop rate, the overwhelming majority of samples must
	// eventually arrive (each failure only defers delivery).
	if st.Samples < 200 {
		t.Errorf("server received %d samples of 300 with %d injected failures",
			st.Samples, flaky.drops)
	}
	if est, ok := server.ErrEstimate(); !ok || est > 0.6 {
		t.Errorf("learning did not progress under failures: est=%v ok=%v", est, ok)
	}
}

// TestIntegrationStoppingOverHTTP drives a full HTTP deployment to the
// ρ stopping criterion and verifies devices observe Done.
func TestIntegrationStoppingOverHTTP(t *testing.T) {
	m := crowdml.NewLogisticRegression(activity.NumClasses, activity.FeatureDim)
	hub := crowdml.NewHub()
	ctx := context.Background()
	task, err := hub.CreateTask(ctx, "stopping", crowdml.ServerConfig{
		Model:       m,
		Updater:     crowdml.NewSGD(crowdml.InvSqrt{C: 20}, 0),
		TargetError: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	server := task.Server()
	ts := httptest.NewServer(crowdml.NewHTTPHandler(hub, "key", nil))
	defer ts.Close()
	client := crowdml.NewHTTPClient(ts.URL, nil).WithTask("stopping")
	token, err := client.Register(ctx, "p1", "key")
	if err != nil {
		t.Fatal(err)
	}
	device, err := crowdml.NewDevice(crowdml.DeviceConfig{
		ID: "p1", Token: token, Model: m, Transport: client, Minibatch: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := activity.NewGenerator(4)
	stopped := false
	for i := 0; i < 3000; i++ {
		s, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := device.AddSample(ctx, s); errors.Is(err, crowdml.ErrStopped) {
			stopped = true
			break
		} else if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	if !stopped {
		est, _ := server.ErrEstimate()
		t.Fatalf("server never reached target error (est=%v after %d iterations)",
			est, server.Iteration())
	}
	if !device.Done() {
		t.Error("device should have latched Done")
	}
	if !server.Stopped() {
		t.Error("server should report stopped")
	}
}

// TestIntegrationConcurrentHTTPCrowd runs a concurrent crowd of HTTP
// devices with privacy enabled and checks the learned model generalizes.
func TestIntegrationConcurrentHTTPCrowd(t *testing.T) {
	const devices = 8
	m := crowdml.NewLogisticRegression(activity.NumClasses, activity.FeatureDim)
	hub := crowdml.NewHub()
	task, err := hub.CreateTask(context.Background(), "crowd", crowdml.ServerConfig{
		Model:   m,
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 10}, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	server := task.Server()
	ts := httptest.NewServer(crowdml.NewHTTPHandler(hub, "key", nil))
	defer ts.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, devices)
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			client := crowdml.NewHTTPClient(ts.URL, nil).WithTask("crowd")
			id := string(rune('a' + i))
			token, err := client.Register(ctx, id, "key")
			if err != nil {
				errCh <- err
				return
			}
			device, err := crowdml.NewDevice(crowdml.DeviceConfig{
				ID: id, Token: token, Model: m, Transport: client,
				Minibatch: 5,
				Budget:    crowdml.Budget{Gradient: crowdml.Eps(100)},
				Seed:      uint64(i + 1),
			})
			if err != nil {
				errCh <- err
				return
			}
			gen := activity.NewGenerator(uint64(10 + i))
			for n := 0; n < 100; n++ {
				s, err := gen.Next()
				if err != nil {
					errCh <- err
					return
				}
				if err := device.AddSample(ctx, s); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := server.Iteration(); got != devices*100/5 {
		t.Errorf("iterations = %d, want %d", got, devices*100/5)
	}
	// Evaluate the learned model on fresh data.
	gen := activity.NewGenerator(999)
	test, err := gen.Stream(300)
	if err != nil {
		t.Fatal(err)
	}
	testErr := metrics.TestError(asInternalModel(m), server.Params(), test)
	if testErr > 0.2 {
		t.Errorf("crowd-learned activity model test error = %v, want < 0.2", testErr)
	}
}

// asInternalModel converts the public Model alias back to the internal
// interface (they are the same type; this keeps the call sites readable).
func asInternalModel(m crowdml.Model) model.Model { return m }

// TestIntegrationMultiTaskHub is the headline v1 scenario: ONE server
// process hosts two concurrent learning tasks over HTTP. Device crowds
// drive each task through its task-scoped /v1/tasks/{id}/ routes, the
// tasks learn independently, and the /v1/tasks listing reflects both.
func TestIntegrationMultiTaskHub(t *testing.T) {
	const (
		devicesPerTask = 4
		perDevice      = 60
		minibatch      = 5
	)
	ctx := context.Background()
	hub := crowdml.NewHub()
	models := map[string]crowdml.Model{
		"activity-logreg": crowdml.NewLogisticRegression(activity.NumClasses, activity.FeatureDim),
		"activity-svm":    crowdml.NewLinearSVM(activity.NumClasses, activity.FeatureDim),
	}
	for id, m := range models {
		if _, err := hub.CreateTask(ctx, id, crowdml.ServerConfig{
			Model:   m,
			Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 10}, 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(crowdml.NewHTTPHandler(hub, "key", nil))
	defer ts.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 2*devicesPerTask)
	for taskID, m := range models {
		for i := 0; i < devicesPerTask; i++ {
			wg.Add(1)
			go func(taskID string, m crowdml.Model, i int) {
				defer wg.Done()
				client := crowdml.NewHTTPClient(ts.URL, nil).WithTask(taskID)
				id := fmt.Sprintf("%s-dev-%d", taskID, i)
				token, err := client.Register(ctx, id, "key")
				if err != nil {
					errCh <- fmt.Errorf("%s register: %w", id, err)
					return
				}
				device, err := crowdml.NewDevice(crowdml.DeviceConfig{
					ID: id, Token: token, Model: m,
					Transport: client, Minibatch: minibatch,
					Seed: uint64(i + 1),
				})
				if err != nil {
					errCh <- err
					return
				}
				gen := activity.NewGenerator(uint64(50 + i))
				sent, err := device.Run(ctx, gen, perDevice)
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", id, err)
					return
				}
				if sent != perDevice {
					errCh <- fmt.Errorf("%s sent %d of %d samples", id, sent, perDevice)
					return
				}
				errCh <- nil
			}(taskID, m, i)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Both tasks advanced independently and by the full amount.
	wantIter := devicesPerTask * perDevice / minibatch
	for id := range models {
		task, ok := hub.Task(id)
		if !ok {
			t.Fatalf("task %s missing", id)
		}
		if got := task.Server().Iteration(); got != wantIter {
			t.Errorf("task %s iterations = %d, want %d", id, got, wantIter)
		}
	}

	// The portal-facing listing sees both tasks.
	summaries, err := crowdml.NewHTTPClient(ts.URL, nil).Tasks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(summaries) != 2 {
		t.Fatalf("task listing has %d entries, want 2", len(summaries))
	}
	for _, s := range summaries {
		if s.Iteration != wantIter {
			t.Errorf("listing %s iteration = %d, want %d", s.ID, s.Iteration, wantIter)
		}
	}
}
