// HTTP cluster — the networked prototype end to end on one machine, now
// multi-task: one server process hosts TWO crowd-learning tasks on a
// shared Hub (the paper's Section V-A portal lists many tasks devices
// can join), and a crowd of device processes (goroutines here, but each
// speaking real HTTP through the same client a separate process would
// use) enrolls into its task via the task-scoped /v1/tasks/{id}/ routes.
// The /v1/tasks listing is polled like the paper's Web portal index.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	crowdml "github.com/crowdml/crowdml"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		devicesPerTask = 4
		perDevice      = 60
		enrollKey      = "demo-enroll-key"
	)
	ctx := context.Background()

	// One process, one hub, two independent learning tasks.
	hub := crowdml.NewHub()
	activityModel := crowdml.NewLogisticRegression(crowdml.ActivityClasses, crowdml.ActivityFeatureDim)
	if _, err := hub.CreateTask(ctx, "activity", crowdml.ServerConfig{
		Model:   activityModel,
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 10}, 0),
	}, crowdml.WithTaskInfo(crowdml.TaskInfo{
		Name:      "Activity recognition",
		Algorithm: "multiclass logistic regression via private distributed SGD",
		Labels:    crowdml.ActivityNames(),
	})); err != nil {
		return err
	}
	svmModel := crowdml.NewLinearSVM(crowdml.ActivityClasses, crowdml.ActivityFeatureDim)
	if _, err := hub.CreateTask(ctx, "activity-svm", crowdml.ServerConfig{
		Model:   svmModel,
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 5}, 0),
	}, crowdml.WithTaskInfo(crowdml.TaskInfo{
		Name:      "Activity recognition (SVM)",
		Algorithm: "Crammer–Singer linear SVM via private distributed SGD",
		Labels:    crowdml.ActivityNames(),
	})); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpServer := &http.Server{
		Handler:           crowdml.NewHTTPHandler(hub, enrollKey, nil),
		ReadHeaderTimeout: 5 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("server listening on %s, hosting %d tasks\n", baseURL, hub.Len())

	var wg sync.WaitGroup
	errs := make(chan error, 2*devicesPerTask)
	for _, spec := range []struct {
		taskID string
		model  crowdml.Model
	}{
		{"activity", activityModel},
		{"activity-svm", svmModel},
	} {
		for i := 0; i < devicesPerTask; i++ {
			wg.Add(1)
			go func(taskID string, m crowdml.Model, i int) {
				defer wg.Done()
				errs <- runDevice(ctx, baseURL, taskID, m, enrollKey, i, perDevice)
			}(spec.taskID, spec.model, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}

	// Poll the task listing, portal-style, through the same client API.
	tasks, err := crowdml.NewHTTPClient(baseURL, nil).Tasks(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\nportal task listing after %d device contributions:\n", 2*devicesPerTask*perDevice)
	for _, t := range tasks {
		line := fmt.Sprintf("  %-22s iter=%4d", t.ID, t.Iteration)
		if t.ErrorEstimate != nil {
			line += fmt.Sprintf("  online error=%.3f", *t.ErrorEstimate)
		}
		fmt.Println(line)
	}

	shutdownCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		return err
	}
	<-serveErr // http.ErrServerClosed after a clean shutdown
	return nil
}

func runDevice(ctx context.Context, baseURL, taskID string, m crowdml.Model, enrollKey string, idx, samples int) error {
	id := fmt.Sprintf("%s-phone-%02d", taskID, idx)
	client := crowdml.NewHTTPClient(baseURL, nil).WithTask(taskID)
	token, err := client.Register(ctx, id, enrollKey)
	if err != nil {
		return fmt.Errorf("%s enroll: %w", id, err)
	}
	device, err := crowdml.NewDevice(crowdml.DeviceConfig{
		ID: id, Token: token, Model: m,
		Transport: client,
		Minibatch: 5,
		Budget:    crowdml.Budget{Gradient: crowdml.FromInv(0.1)},
		Seed:      uint64(idx + 1),
	})
	if err != nil {
		return err
	}
	sent, err := device.Run(ctx, crowdml.NewActivitySimulator(uint64(100+idx)), samples)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	fmt.Printf("  %s: %d samples in %d checkins\n", id, sent, device.Checkins())
	return nil
}
