package hub

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

func serverConfig() core.ServerConfig {
	return core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	}
}

func TestCreateLookupCloseLifecycle(t *testing.T) {
	h := New()
	ctx := context.Background()
	if _, ok := h.Task("alpha"); ok {
		t.Fatal("empty hub should have no tasks")
	}
	task, err := h.CreateTask(ctx, "alpha", serverConfig())
	if err != nil {
		t.Fatalf("CreateTask: %v", err)
	}
	if task.ID() != "alpha" || task.Server() == nil {
		t.Errorf("task = %+v", task)
	}
	got, ok := h.Task("alpha")
	if !ok || got != task {
		t.Error("lookup did not return the created task")
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d, want 1", h.Len())
	}
	if err := h.CloseTask(ctx, "alpha"); err != nil {
		t.Fatalf("CloseTask: %v", err)
	}
	if _, ok := h.Task("alpha"); ok {
		t.Error("closed task still resolvable")
	}
	if !task.Server().Stopped() {
		t.Error("closing a task must stop its server")
	}
	if err := h.CloseTask(ctx, "alpha"); !errors.Is(err, ErrTaskNotFound) {
		t.Errorf("double close error = %v, want ErrTaskNotFound", err)
	}
	if _, err := h.Resolve("alpha"); !errors.Is(err, core.ErrStopped) {
		t.Errorf("Resolve(closed) err = %v, want the tombstone's ErrStopped", err)
	}
	if _, err := h.Resolve("never-existed"); !errors.Is(err, ErrTaskNotFound) || errors.Is(err, core.ErrStopped) {
		t.Errorf("Resolve(unknown) err = %v, want ErrTaskNotFound only", err)
	}
	// Re-creating the ID clears the tombstone.
	if _, err := h.CreateTask(ctx, "alpha", serverConfig()); err != nil {
		t.Fatalf("re-create after close: %v", err)
	}
	if e, err := h.Resolve("alpha"); err != nil || e.Task == nil {
		t.Errorf("Resolve(re-created) = %+v, %v; the tombstone should be cleared", e, err)
	}
}

func TestCreateTaskValidation(t *testing.T) {
	h := New()
	ctx := context.Background()
	if _, err := h.CreateTask(ctx, "dup", serverConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateTask(ctx, "dup", serverConfig()); !errors.Is(err, ErrTaskExists) {
		t.Errorf("duplicate error = %v, want ErrTaskExists", err)
	}
	for _, bad := range []string{"", ".", "..", "has space", "a/b", "ünïcode", string(make([]byte, 200))} {
		if _, err := h.CreateTask(ctx, bad, serverConfig()); !errors.Is(err, ErrBadTaskID) {
			t.Errorf("CreateTask(%q) error = %v, want ErrBadTaskID", bad, err)
		}
	}
	// An invalid server config surfaces as an error, not a panic.
	if _, err := h.CreateTask(ctx, "nomodel", core.ServerConfig{}); err == nil {
		t.Error("expected error for incomplete server config")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := h.CreateTask(cancelled, "late", serverConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled-context error = %v, want context.Canceled", err)
	}
}

func TestTaskInfoDefaultsToID(t *testing.T) {
	h := New()
	task, err := h.CreateTask(context.Background(), "bare", serverConfig())
	if err != nil {
		t.Fatal(err)
	}
	if task.Info().Name != "bare" {
		t.Errorf("Info().Name = %q, want task ID fallback", task.Info().Name)
	}
	named, err := h.CreateTask(context.Background(), "named", serverConfig(),
		WithInfo(TaskInfo{Name: "Display name", Objective: "why"}))
	if err != nil {
		t.Fatal(err)
	}
	if named.Info().Name != "Display name" || named.Info().Objective != "why" {
		t.Errorf("Info() = %+v", named.Info())
	}
}

func TestTasksSortedListing(t *testing.T) {
	h := New()
	ctx := context.Background()
	for _, id := range []string{"zebra", "alpha", "mid"} {
		if _, err := h.CreateTask(ctx, id, serverConfig()); err != nil {
			t.Fatal(err)
		}
	}
	tasks := h.Tasks()
	if len(tasks) != 3 {
		t.Fatalf("listing has %d tasks, want 3", len(tasks))
	}
	for i, want := range []string{"alpha", "mid", "zebra"} {
		if tasks[i].ID() != want {
			t.Errorf("tasks[%d] = %s, want %s", i, tasks[i].ID(), want)
		}
	}
}

// TestConcurrentMultiTaskCheckins drives concurrent device traffic into
// many tasks at once — the sharded registry plus per-task server locks
// must keep every update correct (run with -race).
func TestConcurrentMultiTaskCheckins(t *testing.T) {
	const (
		tasks     = 8
		devices   = 4
		perDevice = 25
	)
	h := New()
	ctx := context.Background()
	tokens := make([][]string, tasks)
	for ti := 0; ti < tasks; ti++ {
		task, err := h.CreateTask(ctx, fmt.Sprintf("task-%d", ti), serverConfig())
		if err != nil {
			t.Fatal(err)
		}
		tokens[ti] = make([]string, devices)
		for di := 0; di < devices; di++ {
			tok, err := task.Server().RegisterDevice(ctx, fmt.Sprintf("dev-%d", di))
			if err != nil {
				t.Fatal(err)
			}
			tokens[ti][di] = tok
		}
	}
	var wg sync.WaitGroup
	for ti := 0; ti < tasks; ti++ {
		for di := 0; di < devices; di++ {
			wg.Add(1)
			go func(ti, di int) {
				defer wg.Done()
				id := fmt.Sprintf("dev-%d", di)
				for n := 0; n < perDevice; n++ {
					task, ok := h.Task(fmt.Sprintf("task-%d", ti))
					if !ok {
						t.Errorf("task-%d vanished", ti)
						return
					}
					co, err := task.Server().Checkout(ctx, id, tokens[ti][di])
					if err != nil {
						t.Errorf("checkout: %v", err)
						return
					}
					req := &core.CheckinRequest{
						Grad:        make([]float64, 4),
						NumSamples:  1,
						LabelCounts: []int{1, 0},
						Version:     co.Version,
					}
					if err := task.Server().Checkin(ctx, id, tokens[ti][di], req); err != nil {
						t.Errorf("checkin: %v", err)
						return
					}
				}
			}(ti, di)
		}
	}
	wg.Wait()
	for ti := 0; ti < tasks; ti++ {
		task, _ := h.Task(fmt.Sprintf("task-%d", ti))
		if got := task.Server().Iteration(); got != devices*perDevice {
			t.Errorf("task-%d iterations = %d, want %d", ti, got, devices*perDevice)
		}
	}
}

// BenchmarkHubCheckout measures parallel authenticated checkouts against
// one task resolved through the hub — the full portal-scale read path
// (registry lookup + lock-free snapshot read). It should scale with
// GOMAXPROCS: no stage of it takes a write lock.
func BenchmarkHubCheckout(b *testing.B) {
	h := New()
	ctx := context.Background()
	task, err := h.CreateTask(ctx, "bench", core.ServerConfig{
		Model:   model.NewLogisticRegression(10, 50),
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	token, err := task.Server().RegisterDevice(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			task, _ := h.Task("bench")
			if _, err := task.Server().Checkout(ctx, "bench", token); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkHubCheckin measures parallel authenticated checkins spread
// across N tasks on one hub. Task count 1 measures single-task batched
// checkin throughput; higher counts show how far independent tasks scale
// on the sharded registry.
func BenchmarkHubCheckin(b *testing.B) {
	for _, tasks := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			h := New()
			ctx := context.Background()
			tokens := make([]string, tasks)
			for ti := 0; ti < tasks; ti++ {
				task, err := h.CreateTask(ctx, fmt.Sprintf("task-%d", ti), core.ServerConfig{
					Model:   model.NewLogisticRegression(10, 50),
					Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
				})
				if err != nil {
					b.Fatal(err)
				}
				tokens[ti], err = task.Server().RegisterDevice(ctx, "bench")
				if err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Spread workers round-robin over the tasks.
				ti := int(next.Add(1)) % tasks
				req := &core.CheckinRequest{
					Grad:        make([]float64, 10*50),
					NumSamples:  20,
					LabelCounts: make([]int, 10),
				}
				for pb.Next() {
					task, _ := h.Task(fmt.Sprintf("task-%d", ti))
					if err := task.Server().Checkin(ctx, "bench", tokens[ti], req); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
