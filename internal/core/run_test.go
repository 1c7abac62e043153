package core

import (
	"context"
	"errors"
	"io"
	"testing"

	"github.com/crowdml/crowdml/internal/model"
)

// sliceSource yields a fixed set of samples then io.EOF.
type sliceSource struct {
	samples []model.Sample
	i       int
}

func (s *sliceSource) Next() (model.Sample, error) {
	if s.i >= len(s.samples) {
		return model.Sample{}, io.EOF
	}
	s.i++
	return s.samples[s.i-1], nil
}

func runSource(n int) *sliceSource {
	src := &sliceSource{}
	for i := 0; i < n; i++ {
		src.samples = append(src.samples, sampleFor(i%2))
	}
	return src
}

func TestRunDrainsSourceAndFlushesTail(t *testing.T) {
	m := model.NewLogisticRegression(2, 3)
	srv := newTestServer(t, ServerConfig{Model: m})
	token := register(t, srv, "d1")
	d, err := NewDevice(DeviceConfig{
		ID: "d1", Token: token, Model: m, Minibatch: 4,
		Transport: srv,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 samples at b=4: two full minibatches plus a flushed tail of 2.
	sent, err := d.Run(context.Background(), runSource(10), 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sent != 10 {
		t.Errorf("sent = %d, want 10", sent)
	}
	if st := srv.ExportState().Devices["d1"]; st.Samples != 10 {
		t.Errorf("server saw %d samples, want 10 (tail not flushed?)", st.Samples)
	}
	if srv.Iteration() != 3 {
		t.Errorf("iterations = %d, want 3", srv.Iteration())
	}
}

func TestRunHonorsMax(t *testing.T) {
	m := model.NewLogisticRegression(2, 3)
	srv := newTestServer(t, ServerConfig{Model: m})
	token := register(t, srv, "d1")
	d, _ := NewDevice(DeviceConfig{
		ID: "d1", Token: token, Model: m, Minibatch: 1,
		Transport: srv,
	})
	sent, err := d.Run(context.Background(), runSource(100), 7)
	if err != nil || sent != 7 {
		t.Errorf("Run = (%d, %v), want (7, nil)", sent, err)
	}
}

func TestRunStopsOnCancelledContext(t *testing.T) {
	m := model.NewLogisticRegression(2, 3)
	srv := newTestServer(t, ServerConfig{Model: m})
	token := register(t, srv, "d1")
	d, _ := NewDevice(DeviceConfig{
		ID: "d1", Token: token, Model: m, Minibatch: 1,
		Transport: srv,
	})
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Run(cctx, runSource(10), 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Run error = %v, want context.Canceled", err)
	}
}

func TestRunReturnsCleanlyWhenTaskStops(t *testing.T) {
	m := model.NewLogisticRegression(2, 3)
	srv := newTestServer(t, ServerConfig{Model: m, Tmax: 2})
	token := register(t, srv, "d1")
	d, _ := NewDevice(DeviceConfig{
		ID: "d1", Token: token, Model: m, Minibatch: 1,
		Transport: srv,
	})
	sent, err := d.Run(context.Background(), runSource(50), 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !d.Done() {
		t.Error("device should latch Done when the server stops the task")
	}
	if sent >= 50 {
		t.Errorf("sent = %d, expected early stop before the source drained", sent)
	}
}

// downTransport fails every call, simulating a persistent outage.
type downTransport struct{ calls int }

var errDown = errors.New("network down")

func (d *downTransport) Checkout(context.Context, string, string) (*CheckoutResponse, error) {
	d.calls++
	return nil, errDown
}

func (d *downTransport) Checkin(context.Context, string, string, *CheckinRequest) error {
	d.calls++
	return errDown
}

// TestRunReturnsBufferFullOnDeadTransport: with the transport down and
// the buffer at its cap, Run must hand control back (retaining the
// buffer) instead of busy-looping through the rest of the source.
func TestRunReturnsBufferFullOnDeadTransport(t *testing.T) {
	m := model.NewLogisticRegression(2, 3)
	tr := &downTransport{}
	d, err := NewDevice(DeviceConfig{
		ID: "d1", Token: "t", Model: m, Minibatch: 2, MaxBuffer: 4,
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent, err := d.Run(context.Background(), runSource(100), 0)
	if !errors.Is(err, ErrBufferFull) {
		t.Fatalf("Run = (%d, %v), want ErrBufferFull", sent, err)
	}
	if d.Buffered() != 4 {
		t.Errorf("buffered = %d, want the full cap of 4 retained", d.Buffered())
	}
	if d.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0 — Run must pre-drain, not discard", d.Dropped())
	}
	if tr.calls > 20 {
		t.Errorf("transport called %d times — Run kept spinning", tr.calls)
	}
}

// TestRunSurfacesTrailingFlushFailure: a trailing partial minibatch that
// cannot be checked in must be reported, not silently counted as
// contributed.
func TestRunSurfacesTrailingFlushFailure(t *testing.T) {
	m := model.NewLogisticRegression(2, 3)
	tr := &downTransport{}
	d, err := NewDevice(DeviceConfig{
		ID: "d1", Token: "t", Model: m, Minibatch: 5, MaxBuffer: 100,
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 samples < minibatch: nothing flushes until the trailing flush,
	// which fails on the dead transport.
	sent, err := d.Run(context.Background(), runSource(3), 0)
	if err == nil || errors.Is(err, ErrBufferFull) {
		t.Fatalf("Run = (%d, %v), want a final-flush error", sent, err)
	}
	if d.Buffered() != 3 {
		t.Errorf("buffered = %d, want 3 retained for retry", d.Buffered())
	}
}

func TestRunOnDoneDeviceConsumesNothing(t *testing.T) {
	m := model.NewLogisticRegression(2, 3)
	srv := newTestServer(t, ServerConfig{Model: m, Tmax: 1})
	token := register(t, srv, "d1")
	d, _ := NewDevice(DeviceConfig{
		ID: "d1", Token: token, Model: m, Minibatch: 1,
		Transport: srv,
	})
	if _, err := d.Run(context.Background(), runSource(10), 0); err != nil {
		t.Fatal(err)
	}
	if !d.Done() {
		t.Fatal("Tmax=1 should have stopped the task")
	}
	src := runSource(10)
	sent, err := d.Run(context.Background(), src, 0)
	if sent != 0 || err != nil {
		t.Errorf("Run on done device = (%d, %v), want (0, nil)", sent, err)
	}
	if src.i != 0 {
		t.Errorf("done device consumed %d samples from the source", src.i)
	}
}

func TestServerMethodsRejectCancelledContext(t *testing.T) {
	srv := newTestServer(t, ServerConfig{})
	token := register(t, srv, "d1")
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.RegisterDevice(cctx, "d2"); !errors.Is(err, context.Canceled) {
		t.Errorf("RegisterDevice = %v, want context.Canceled", err)
	}
	if _, err := srv.Checkout(cctx, "d1", token); !errors.Is(err, context.Canceled) {
		t.Errorf("Checkout = %v, want context.Canceled", err)
	}
	if err := srv.Checkin(cctx, "d1", token, validCheckin(0)); !errors.Is(err, context.Canceled) {
		t.Errorf("Checkin = %v, want context.Canceled", err)
	}
}
