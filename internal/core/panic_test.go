package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

// panicOnceUpdater panics on its first Update call and behaves like a
// plain SGD step afterwards — the misbehaving-user-callback scenario.
type panicOnceUpdater struct {
	panicked atomic.Bool
	inner    optimizer.Updater
}

func (u *panicOnceUpdater) Update(w, g *linalg.Matrix, t int) {
	if u.panicked.CompareAndSwap(false, true) {
		panic("updater exploded")
	}
	u.inner.Update(w, g, t)
}

func (u *panicOnceUpdater) Name() string { return "panic-once" }

// TestApplierPanicSafety checks the old defer-released-mutex robustness
// survives batching: a panic in a user-supplied Updater propagates to the
// leader's own Checkin call (as it always did), queued waiters in the
// same batch fail with ErrCheckinAborted instead of hanging, and the
// server keeps serving afterwards.
func TestApplierPanicSafety(t *testing.T) {
	const classes, dim = 2, 4
	srv, err := NewServer(ServerConfig{
		Model:   model.NewLogisticRegression(classes, dim),
		Updater: &panicOnceUpdater{inner: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	token, err := srv.RegisterDevice(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	req := func() *CheckinRequest {
		return &CheckinRequest{
			Grad:        make([]float64, classes*dim),
			NumSamples:  1,
			LabelCounts: make([]int, classes),
		}
	}

	// Fire concurrent checkins; whichever becomes leader first trips the
	// panicking updater. Every call must resolve — the leader's caller
	// observes the panic, waiters batched behind it fail with
	// ErrCheckinAborted, later ones apply cleanly — and none may hang.
	const callers = 9
	var wg sync.WaitGroup
	outcomes := make(chan error, callers)
	panics := make(chan any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics <- r
				}
			}()
			outcomes <- srv.Checkin(ctx, "dev", token, req())
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("checkins hung after an applier panic")
	}
	close(panics)
	close(outcomes)
	var panicCount int
	for range panics {
		panicCount++
	}
	if panicCount != 1 {
		t.Fatalf("observed %d panics, want exactly 1 (in the leader's caller)", panicCount)
	}
	succeeded := 0
	for err := range outcomes {
		if err == nil {
			succeeded++
		} else if !errors.Is(err, ErrCheckinAborted) {
			t.Errorf("checkin error = %v, want nil or ErrCheckinAborted", err)
		}
	}

	// Exactly-once accounting: every nil outcome was applied once; the
	// panicking item and every aborted/abandoned one committed nothing
	// (the updater runs before the iteration or any counter is taken), so
	// a retry cannot double-count.
	if got, want := srv.Iteration(), succeeded; got != want {
		t.Errorf("Iteration() = %d, want %d (one per successful checkin)", got, want)
	}
	if st, ok := srv.ExportState().Devices["dev"]; !ok || st.Checkins != succeeded {
		t.Errorf("device Checkins = %d (ok=%v), want %d", st.Checkins, ok, succeeded)
	}

	// The server must still work: semaphore and lock were released.
	if err := srv.Checkin(ctx, "dev", token, req()); err != nil {
		t.Fatalf("checkin after panic: %v", err)
	}
	if _, err := srv.Checkout(ctx, "dev", token); err != nil {
		t.Fatalf("checkout after panic: %v", err)
	}
}

// TestHookPanicIsolation checks that a panicking OnCommit aborts
// nothing: its batch is already applied, so every waiter gets its real
// (successful) result, and the panic then resumes out of the leader —
// out of exactly one Checkin call. Later batches commit as usual.
func TestHookPanicIsolation(t *testing.T) {
	const classes, dim = 2, 4
	var mu sync.Mutex
	var logged []int
	var explode atomic.Bool // the next OnCommit call panics
	srv, err := NewServer(ServerConfig{
		Model:   model.NewLogisticRegression(classes, dim),
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
		OnCommit: func(records []ReplayRecord) {
			mu.Lock()
			for _, r := range records {
				logged = append(logged, r.Iteration)
			}
			mu.Unlock()
			if explode.CompareAndSwap(true, false) {
				panic("journal exploded")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// A batch of three waiters whose commit explodes: all three are told
	// they succeeded, and the leader sees the panic.
	explode.Store(true)
	batch := []*pendingCheckin{pendingFor(t, srv, "dev"), pendingFor(t, srv, "dev"), pendingFor(t, srv, "dev")}
	if r := applyAsLeader(srv, batch...); r != "journal exploded" {
		t.Fatalf("leader recovered %v, want the OnCommit panic", r)
	}
	for i, err := range answers(batch...) {
		if err != nil {
			t.Errorf("waiter %d got %v; an OnCommit panic must not fail applied checkins", i, err)
		}
	}

	// The same through concurrent Checkin calls.
	ctx := context.Background()
	token, err := srv.RegisterDevice(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	explode.Store(true)
	req := func() *CheckinRequest {
		return &CheckinRequest{
			Grad:        make([]float64, classes*dim),
			NumSamples:  1,
			LabelCounts: make([]int, classes),
		}
	}
	const callers = 8
	var wg sync.WaitGroup
	panics := make(chan any, callers)
	failed := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics <- r
				}
			}()
			if err := srv.Checkin(ctx, "dev", token, req()); err != nil {
				failed <- err
			}
		}()
	}
	wg.Wait()
	close(panics)
	close(failed)
	var panicCount int
	for range panics {
		panicCount++
	}
	if panicCount != 1 {
		t.Fatalf("observed %d panics, want 1 (the leader whose OnCommit exploded)", panicCount)
	}
	for err := range failed {
		t.Errorf("checkin failed with %v; an OnCommit panic must not fail applied checkins", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := len(batch) + callers; len(logged) != want || srv.Iteration() != want {
		t.Fatalf("%d records committed, server at iteration %d, want %d (one per applied checkin)",
			len(logged), srv.Iteration(), want)
	}
	for i, it := range logged {
		if it != i+1 {
			t.Fatalf("committed iterations out of order: %v", logged)
		}
	}
}
