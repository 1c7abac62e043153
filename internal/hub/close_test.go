package hub

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/store"
)

// gatedSaveStore wraps a MemStore whose checkpoint Save blocks until gate
// is closed and then fails while fail is set: a store that is slow, broken,
// or both, for exactly as long as a test says.
type gatedSaveStore struct {
	*store.MemStore
	// entered gets one token per Save entered; buffered beyond the three
	// Saves any test makes, so a Save never waits on a test not reading it.
	entered chan struct{}
	gate    chan struct{}
	fail    atomic.Bool
	saves   atomic.Int64
}

func newGatedSaveStore(open bool) *gatedSaveStore {
	s := &gatedSaveStore{MemStore: store.NewMemStore(), entered: make(chan struct{}, 16), gate: make(chan struct{})}
	if open {
		close(s.gate)
	}
	return s
}

func (s *gatedSaveStore) Save(ctx context.Context, state *core.ServerState, now time.Time) error {
	s.saves.Add(1)
	s.entered <- struct{}{}
	<-s.gate
	if s.fail.Load() {
		return errors.New("disk full")
	}
	return s.MemStore.Save(ctx, state, now)
}

// TestConcurrentCloseWaitsForInFlightAttempt: a Close that arrives while
// another one's final Save is in flight waits for that attempt instead of
// racing it, and returns its verdict — nil without a second Save when it
// succeeded, an error when the store is still failing — while a waiter
// whose context expires first gets its context error. A failed attempt
// leaves the close retryable.
func TestConcurrentCloseWaitsForInFlightAttempt(t *testing.T) {
	for _, fail := range []bool{false, true} {
		name := map[bool]string{false: "save succeeds", true: "save fails"}[fail]
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			st := newGatedSaveStore(false)
			st.fail.Store(fail)
			h := New()
			task, err := h.CreateTask(ctx, "t", serverConfig(), WithStore(st),
				WithCheckpointPolicy(CheckpointPolicy{Every: time.Hour}))
			if err != nil {
				t.Fatal(err)
			}
			checkinN(t, task.Server(), "d1", 2)

			first, second := make(chan error, 1), make(chan error, 1)
			go func() { first <- h.Close(ctx) }()
			<-st.entered // the first attempt's final Save is in flight
			go func() { second <- h.Close(ctx) }()

			short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
			defer cancel()
			if err := h.Close(short); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("a waiter whose context expired got %v, want its DeadlineExceeded", err)
			}
			select {
			case err := <-second:
				t.Fatalf("a concurrent Close returned %v while the first attempt's Save was still in flight", err)
			default:
			}

			close(st.gate)
			errFirst, errSecond := <-first, <-second
			if fail {
				if errFirst == nil || errSecond == nil {
					t.Fatalf("Close against a failing store returned %v and %v, want two errors", errFirst, errSecond)
				}
				if _, err := st.Load(ctx); !errors.Is(err, store.ErrNoCheckpoint) {
					t.Fatalf("a failed final Save left a checkpoint: %v", err)
				}
				st.fail.Store(false)
				if err := h.Close(ctx); err != nil {
					t.Fatalf("Close once the store recovered: %v", err)
				}
			} else {
				if errFirst != nil || errSecond != nil {
					t.Fatalf("Close returned %v and %v, want nil twice", errFirst, errSecond)
				}
				if n := st.saves.Load(); n != 1 {
					t.Errorf("%d final Saves for one successful close, want 1", n)
				}
			}
			cp, err := st.Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if cp.State.Iteration != 2 {
				t.Errorf("final checkpoint at iteration %d, want 2", cp.State.Iteration)
			}
			if err := h.Close(ctx); err != nil {
				t.Errorf("Close after a successful close: %v", err)
			}
		})
	}
}

// TestRetriedCloseKeepsLearningStop: a Close whose final Save fails halts
// the task all the same, and the retry that succeeds once the store
// recovers persists the learning rule's verdict unchanged — stopped when
// Tmax was reached, running otherwise — and never the shutdown itself.
func TestRetriedCloseKeepsLearningStop(t *testing.T) {
	for _, tmax := range []int{0, 3} {
		wantStopped := tmax > 0
		name := map[bool]string{false: "running", true: "Tmax reached"}[wantStopped]
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			cfg := func() core.ServerConfig {
				c := serverConfig()
				c.Tmax = tmax
				return c
			}
			st := newGatedSaveStore(true)
			h := New()
			task, err := h.CreateTask(ctx, "t", cfg(), WithStore(st),
				WithCheckpointPolicy(CheckpointPolicy{Every: time.Hour}))
			if err != nil {
				t.Fatal(err)
			}
			srv := task.Server()
			checkinN(t, srv, "d1", 3)
			token, err := srv.RegisterDevice(ctx, "d2")
			if err != nil {
				t.Fatal(err)
			}

			st.fail.Store(true)
			if err := h.Close(ctx); err == nil {
				t.Fatal("Close against a failing store returned nil")
			}
			req := &core.CheckinRequest{Grad: []float64{1, 0, 0, 1}, NumSamples: 1, LabelCounts: []int{1, 0}}
			if err := srv.Checkin(ctx, "d2", token, req); !errors.Is(err, core.ErrStopped) {
				t.Errorf("checkin after a failed Close = %v, want ErrStopped", err)
			}
			st.fail.Store(false)
			if err := h.Close(ctx); err != nil {
				t.Fatalf("retried Close: %v", err)
			}
			cp, err := st.Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if cp.State.Iteration != 3 || cp.State.Stopped != wantStopped {
				t.Errorf("persisted iteration %d, stopped %v; want 3, %v", cp.State.Iteration, cp.State.Stopped, wantStopped)
			}

			h2 := New()
			restored, err := h2.CreateTask(ctx, "t", cfg(), WithStore(st))
			if err != nil {
				t.Fatal(err)
			}
			if got := restored.Server().Stopped(); got != wantStopped {
				t.Errorf("restored task stopped = %v, want %v", got, wantStopped)
			}
			if !wantStopped {
				checkinN(t, restored.Server(), "d3", 1)
			}
			if err := h2.Close(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}
