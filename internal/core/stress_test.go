package core

import (
	"context"
	"fmt"
	"sync"
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

// TestConcurrentStress interleaves checkout, checkin and stats reads from
// many devices against one server and asserts the learning state stays
// consistent: the iteration counter equals the number of applied
// checkins, the crowd totals ΣN_s/ΣN_e/ΣN^k_y equal the sums of what the
// devices contributed, per-device counters match, and the checkout
// snapshot version is monotonic from any single observer's point of view.
// Run with -race to exercise the lock-free read paths against the batched
// applier.
func TestConcurrentStress(t *testing.T) {
	const (
		devices           = 8
		checkinsPerDevice = 120
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

	tokens := make([]string, devices)
	for i := range tokens {
		if tokens[i], err = srv.RegisterDevice(ctx, deviceID(i)); err != nil {
			t.Fatal(err)
		}
	}

	var writers, readers sync.WaitGroup
	stopReaders := make(chan struct{})

	// Stats readers hammer the lock-free read paths while writers apply.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
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
				srv.DeviceStats(deviceID(0))
			}
		}()
	}

	for i := 0; i < devices; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			lastVersion := -1
			for n := 0; n < checkinsPerDevice; n++ {
				co, err := srv.Checkout(ctx, deviceID(i), tokens[i])
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
				if err := srv.Checkin(ctx, deviceID(i), tokens[i], req); err != nil {
					t.Errorf("device %d checkin %d: %v", i, n, err)
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
	readers.Wait()

	total := devices * checkinsPerDevice
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
	for i := 0; i < devices; i++ {
		st, ok := srv.DeviceStats(deviceID(i))
		if !ok {
			t.Fatalf("device %d missing from stats", i)
		}
		if st.Checkins != checkinsPerDevice {
			t.Errorf("device %d Checkins = %d, want %d", i, st.Checkins, checkinsPerDevice)
		}
		if st.Samples != 2*checkinsPerDevice || st.Errors != checkinsPerDevice {
			t.Errorf("device %d counters = (%d samples, %d errors), want (%d, %d)",
				i, st.Samples, st.Errors, 2*checkinsPerDevice, checkinsPerDevice)
		}
		if st.StalenessSum < 0 {
			t.Errorf("device %d StalenessSum = %d, want >= 0", i, st.StalenessSum)
		}
	}
	// The final snapshot must converge to the final iteration once a
	// reader asks for it.
	if _, err := srv.Checkout(ctx, deviceID(0), tokens[0]); err != nil {
		t.Fatal(err)
	}
	if v := srv.SnapshotVersion(); v != total {
		t.Errorf("SnapshotVersion() after final checkout = %d, want %d", v, total)
	}
}

func deviceID(i int) string { return fmt.Sprintf("device-%02d", i) }
