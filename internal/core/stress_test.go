package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

// shrinkApplier gives a server that has not served a checkin yet a tiny
// batch limit and queue, so a handful of goroutines exercise leader
// hand-off and queue backpressure rather than the uncontended fast path.
func shrinkApplier(s *Server, maxBatch, queueDepth int) {
	s.maxBatch = maxBatch
	s.queue = make(chan *pendingCheckin, queueDepth)
}

// TestConcurrentStress interleaves checkout, checkin, state export and
// enrolment from many goroutines against one server and asserts the
// learning state stays consistent: the iteration counter equals the number
// of applied checkins, the crowd totals ΣN_s/ΣN_e/ΣN^k_y equal the sums of
// what the devices contributed, every export's per-device Checkins sum to
// its iteration, each device's counters equal what it was acked for, and
// the checkout snapshot version is monotonic from any single observer's
// point of view. Meanwhile RegisterDevice rotates the checking-in devices'
// tokens and enrolls new IDs. Run with -race: it exercises the registry
// lock (tokens, the map) against the apply lock (counters).
func TestConcurrentStress(t *testing.T) {
	const (
		devices           = 8
		checkinsPerDevice = 120
		rotations         = 120
		classes           = 3
		dim               = 16
	)
	srv, err := NewServer(ServerConfig{
		Model:   model.NewLogisticRegression(classes, dim),
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	shrinkApplier(srv, 4, 8)
	ctx := context.Background()

	// tokens[i] is device i's current token; the rotator replaces it.
	tokens := make([]atomic.Pointer[string], devices)
	rotate := func(i int) error {
		tok, err := srv.RegisterDevice(ctx, deviceID(i))
		tokens[i].Store(&tok)
		return err
	}
	for i := range tokens {
		if err := rotate(i); err != nil {
			t.Fatal(err)
		}
	}

	var writers, others sync.WaitGroup
	stopReaders := make(chan struct{})

	// Readers hammer the lock-free read paths while writers apply.
	for r := 0; r < 2; r++ {
		others.Add(1)
		go func() {
			defer others.Done()
			lastVersion := -1
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				if v := srv.SnapshotVersion(); v < lastVersion {
					t.Errorf("snapshot version went backwards: %d -> %d", lastVersion, v)
					return
				} else {
					lastVersion = v
				}
				srv.ErrEstimate()
				srv.PriorEstimate()
				srv.Iteration()
				srv.Stopped()
			}
		}()
	}

	// The exporter does what a checkpointer does, against enrolment (the
	// registry lock) and applies (the apply lock).
	others.Add(1)
	go func() {
		defer others.Done()
		var buf StateBuffer
		for {
			select {
			case <-stopReaders:
				return
			default:
			}
			st := srv.ExportStateInto(&buf)
			if n := sumCheckins(st); n != st.Iteration {
				t.Errorf("export at iteration %d: devices' checkins sum to %d", st.Iteration, n)
				return
			}
		}
	}()

	// The rotator re-registers the writers in turn (a writer's next request
	// with the old token gets ErrAuth) and enrolls a new device after each
	// rotation, spread over the writers' run by the iteration counter.
	total := devices * checkinsPerDevice
	others.Add(1)
	go func() {
		defer others.Done()
		for n := 0; n < rotations; n++ {
			for srv.Iteration() < n*total/rotations {
				select {
				case <-stopReaders:
					return
				default:
					runtime.Gosched()
				}
			}
			if err := rotate(n % devices); err != nil {
				t.Error(err)
				return
			}
			if _, err := srv.RegisterDevice(ctx, fmt.Sprintf("late-%02d", n)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	acked := make([]int, devices)
	for i := 0; i < devices; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			lastVersion := -1
			for acked[i] < checkinsPerDevice {
				token := *tokens[i].Load()
				co, err := srv.Checkout(ctx, deviceID(i), token)
				if errors.Is(err, ErrAuth) {
					runtime.Gosched() // rotated under us: take the new token
					continue
				}
				if err != nil {
					t.Errorf("device %d checkout: %v", i, err)
					return
				}
				if co.Version < lastVersion {
					t.Errorf("device %d: checkout version went backwards: %d -> %d",
						i, lastVersion, co.Version)
					return
				}
				lastVersion = co.Version
				req := &CheckinRequest{
					Grad:        make([]float64, classes*dim),
					NumSamples:  2,
					ErrCount:    1,
					LabelCounts: []int{1, 1, 0},
					Version:     co.Version,
				}
				req.Grad[i%len(req.Grad)] = 0.01
				switch err := srv.Checkin(ctx, deviceID(i), token, req); {
				case err == nil:
					acked[i]++
				case !errors.Is(err, ErrAuth):
					t.Errorf("device %d checkin %d: %v", i, acked[i], err)
					return
				}
			}
		}(i)
	}

	// Wait for the writers, then release the readers.
	done := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		close(stopReaders)
		t.Fatal("stress run timed out")
	}
	close(stopReaders)
	others.Wait()

	if got := srv.Iteration(); got != total {
		t.Errorf("Iteration() = %d, want %d", got, total)
	}
	if est, ok := srv.ErrEstimate(); !ok || est != 0.5 {
		t.Errorf("ErrEstimate() = %v, %v; want 0.5 (1 error per 2 samples)", est, ok)
	}
	prior, ok := srv.PriorEstimate()
	if !ok {
		t.Fatal("PriorEstimate() not ready after stress run")
	}
	if prior[0] != 0.5 || prior[1] != 0.5 || prior[2] != 0 {
		t.Errorf("PriorEstimate() = %v, want [0.5 0.5 0]", prior)
	}
	st := srv.ExportState()
	if len(st.Devices) != devices+rotations {
		t.Errorf("exported %d devices, want %d writers + %d enrolled", len(st.Devices), devices, rotations)
	}
	if n := sumCheckins(st); n != srv.Iteration() {
		t.Errorf("exported checkins sum to %d, Iteration() = %d", n, srv.Iteration())
	}
	for i := 0; i < devices; i++ {
		d, ok := st.Devices[deviceID(i)]
		if !ok {
			t.Fatalf("device %d missing from the export", i)
		}
		if d.Checkins != acked[i] {
			t.Errorf("device %d Checkins = %d, acked %d", i, d.Checkins, acked[i])
		}
		if d.Samples != 2*acked[i] || d.Errors != acked[i] {
			t.Errorf("device %d counters = (%d samples, %d errors), want (%d, %d)",
				i, d.Samples, d.Errors, 2*acked[i], acked[i])
		}
		if d.StalenessSum < 0 {
			t.Errorf("device %d StalenessSum = %d, want >= 0", i, d.StalenessSum)
		}
	}
	// The final snapshot must converge to the final iteration once a
	// reader asks for it.
	if _, err := srv.Checkout(ctx, deviceID(0), *tokens[0].Load()); err != nil {
		t.Fatal(err)
	}
	if v := srv.SnapshotVersion(); v != total {
		t.Errorf("SnapshotVersion() after final checkout = %d, want %d", v, total)
	}
}

// sumCheckins is Σ Checkins over an export's devices.
func sumCheckins(st *ServerState) int {
	n := 0
	for _, d := range st.Devices {
		n += d.Checkins
	}
	return n
}

func deviceID(i int) string { return fmt.Sprintf("device-%02d", i) }
