package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

// ctx is the background context shared by the package's tests.
var ctx = context.Background()

func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.Model == nil {
		cfg.Model = model.NewLogisticRegression(3, 2)
	}
	if cfg.Updater == nil {
		cfg.Updater = &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}}
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s
}

func register(t *testing.T, s *Server, id string) string {
	t.Helper()
	token, err := s.RegisterDevice(context.Background(), id)
	if err != nil {
		t.Fatalf("RegisterDevice: %v", err)
	}
	return token
}

func validCheckin(version int) *CheckinRequest {
	return &CheckinRequest{
		Grad:        make([]float64, 3*2),
		NumSamples:  1,
		ErrCount:    1,
		LabelCounts: []int{1, 0, 0},
		Version:     version,
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("expected error for missing model")
	}
	if _, err := NewServer(ServerConfig{Model: model.NewLogisticRegression(2, 2)}); err == nil {
		t.Error("expected error for missing updater")
	}
}

func TestAuthRequired(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	if _, err := s.Checkout(ctx, "ghost", "nope"); !errors.Is(err, ErrAuth) {
		t.Errorf("unregistered checkout error = %v, want ErrAuth", err)
	}
	token := register(t, s, "d1")
	if _, err := s.Checkout(ctx, "d1", "wrong"); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong-token checkout error = %v, want ErrAuth", err)
	}
	if _, err := s.Checkout(ctx, "d1", token); err != nil {
		t.Errorf("valid checkout failed: %v", err)
	}
	if err := s.Checkin(ctx, "d1", "wrong", validCheckin(0)); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong-token checkin error = %v, want ErrAuth", err)
	}
}

func TestTokenRotation(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	old := register(t, s, "d1")
	renew := register(t, s, "d1")
	if old == renew {
		t.Error("re-registration should rotate the token")
	}
	if _, err := s.Checkout(ctx, "d1", old); !errors.Is(err, ErrAuth) {
		t.Error("old token should be rejected after rotation")
	}
	if _, err := s.Checkout(ctx, "d1", renew); err != nil {
		t.Errorf("new token rejected: %v", err)
	}
}

func TestCheckinAppliesUpdate(t *testing.T) {
	s := newTestServer(t, ServerConfig{
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 1}},
	})
	token := register(t, s, "d1")
	req := validCheckin(0)
	req.Grad[0] = 2 // w[0] should move by -η·2 = -2
	if err := s.Checkin(ctx, "d1", token, req); err != nil {
		t.Fatalf("Checkin: %v", err)
	}
	w := s.Params()
	if w.Data()[0] != -2 {
		t.Errorf("w[0] = %v, want -2", w.Data()[0])
	}
	if s.Iteration() != 1 {
		t.Errorf("iteration = %d, want 1", s.Iteration())
	}
}

func TestCheckinValidation(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")
	tests := []struct {
		name string
		req  *CheckinRequest
	}{
		{name: "short gradient", req: &CheckinRequest{Grad: make([]float64, 3), LabelCounts: []int{0, 0, 0}}},
		{name: "wrong label arity", req: &CheckinRequest{Grad: make([]float64, 6), LabelCounts: []int{0}}},
		{name: "negative samples", req: &CheckinRequest{Grad: make([]float64, 6), LabelCounts: []int{0, 0, 0}, NumSamples: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := s.Checkin(ctx, "d1", token, tt.req); !errors.Is(err, ErrBadCheckin) {
				t.Errorf("error = %v, want ErrBadCheckin", err)
			}
		})
	}
}

func TestStoppingTmax(t *testing.T) {
	s := newTestServer(t, ServerConfig{Tmax: 2})
	token := register(t, s, "d1")
	for i := 0; i < 2; i++ {
		if err := s.Checkin(ctx, "d1", token, validCheckin(i)); err != nil {
			t.Fatalf("checkin %d: %v", i, err)
		}
	}
	if !s.Stopped() {
		t.Error("server should stop at Tmax")
	}
	if err := s.Checkin(ctx, "d1", token, validCheckin(2)); !errors.Is(err, ErrStopped) {
		t.Errorf("post-stop checkin error = %v, want ErrStopped", err)
	}
	co, err := s.Checkout(ctx, "d1", token)
	if err != nil {
		t.Fatalf("post-stop checkout should answer: %v", err)
	}
	if !co.Done {
		t.Error("post-stop checkout should set Done")
	}
}

func TestStoppingTargetError(t *testing.T) {
	s := newTestServer(t, ServerConfig{TargetError: 0.1})
	token := register(t, s, "d1")
	// 30 perfect samples (10 × C with 3 classes) → error estimate 0 ≤ 0.1 → stop.
	req := &CheckinRequest{
		Grad:        make([]float64, 6),
		NumSamples:  30,
		ErrCount:    0,
		LabelCounts: []int{30, 0, 0},
	}
	if err := s.Checkin(ctx, "d1", token, req); err != nil {
		t.Fatalf("Checkin: %v", err)
	}
	if !s.Stopped() {
		t.Error("server should stop when error estimate reaches target")
	}
}

// TestStoppingRespectsMinSamples: the ρ criterion waits for 10 × C
// samples: 29 perfect ones with 3 classes do not stop the task, the 30th
// does.
func TestStoppingRespectsMinSamples(t *testing.T) {
	s := newTestServer(t, ServerConfig{TargetError: 0.5})
	token := register(t, s, "d1")
	checkin := func(n int) {
		req := &CheckinRequest{
			Grad: make([]float64, 6), NumSamples: n, LabelCounts: []int{n, 0, 0},
		}
		if err := s.Checkin(ctx, "d1", token, req); err != nil {
			t.Fatalf("Checkin: %v", err)
		}
	}
	checkin(29)
	if s.Stopped() {
		t.Error("server stopped at 29 samples, before 10 × C = 30")
	}
	checkin(1)
	if !s.Stopped() {
		t.Error("server did not stop at 30 samples")
	}
}

func TestEstimates(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")
	if _, ok := s.ErrEstimate(); ok {
		t.Error("ErrEstimate should be unavailable before any checkin")
	}
	if _, ok := s.PriorEstimate(); ok {
		t.Error("PriorEstimate should be unavailable before any checkin")
	}
	req := &CheckinRequest{
		Grad: make([]float64, 6), NumSamples: 10, ErrCount: 3,
		LabelCounts: []int{6, 3, 1},
	}
	if err := s.Checkin(ctx, "d1", token, req); err != nil {
		t.Fatalf("Checkin: %v", err)
	}
	est, ok := s.ErrEstimate()
	if !ok || math.Abs(est-0.3) > 1e-12 {
		t.Errorf("ErrEstimate = %v/%v, want 0.3", est, ok)
	}
	prior, ok := s.PriorEstimate()
	if !ok || !linalg.Equal(prior, []float64{0.6, 0.3, 0.1}, 1e-12) {
		t.Errorf("PriorEstimate = %v", prior)
	}
}

func TestDeviceStatsTracking(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")
	if _, ok := exportedDevice(s, "unknown"); ok {
		t.Error("unknown device should not have stats")
	}
	// First checkin with version 0 (no staleness), second stale by 1.
	if err := s.Checkin(ctx, "d1", token, validCheckin(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkin(ctx, "d1", token, validCheckin(0)); err != nil {
		t.Fatal(err)
	}
	st, ok := exportedDevice(s, "d1")
	if !ok {
		t.Fatal("missing device stats")
	}
	if st.Checkins != 2 || st.Samples != 2 || st.Errors != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.StalenessSum != 1 {
		t.Errorf("StalenessSum = %d, want 1 (second checkin was 1 behind)", st.StalenessSum)
	}
	// Returned slice must be a copy.
	st.LabelCounts[0] = 99
	st2, _ := exportedDevice(s, "d1")
	if st2.LabelCounts[0] == 99 {
		t.Error("the export leaked an internal slice")
	}
}

func TestConcurrentCheckins(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	const devices = 16
	const perDevice = 50
	tokens := make([]string, devices)
	for i := range tokens {
		tokens[i] = register(t, s, deviceName(i))
	}
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perDevice; j++ {
				co, err := s.Checkout(ctx, deviceName(i), tokens[i])
				if err != nil {
					t.Errorf("checkout: %v", err)
					return
				}
				if err := s.Checkin(ctx, deviceName(i), tokens[i], validCheckin(co.Version)); err != nil {
					t.Errorf("checkin: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := s.Iteration(); got != devices*perDevice {
		t.Errorf("iteration = %d, want %d", got, devices*perDevice)
	}
}

func deviceName(i int) string {
	return "device-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func TestStopAdministrative(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")
	s.Stop()
	if err := s.Checkin(ctx, "d1", token, validCheckin(0)); !errors.Is(err, ErrStopped) {
		t.Errorf("checkin after Stop = %v, want ErrStopped", err)
	}
	if !s.ExportState().Stopped {
		t.Error("Stop is learning state: the export must carry it")
	}
}

// TestHaltIsNotLearningState: a halted server refuses checkins — also one
// already queued when the halt landed — and tells devices Done, but the
// halt belongs to this process: its export says running, and a server
// restored from that export accepts checkins.
func TestHaltIsNotLearningState(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")
	queued := pendingFor(t, s, "d1")
	s.Halt()
	if err := s.Checkin(ctx, "d1", token, validCheckin(0)); !errors.Is(err, ErrStopped) {
		t.Errorf("checkin after Halt = %v, want ErrStopped", err)
	}
	if r := applyAsLeader(s, queued); r != nil {
		t.Fatalf("apply panicked: %v", r)
	}
	if err := answers(queued)[0]; !errors.Is(err, ErrStopped) {
		t.Errorf("a checkin queued before Halt was answered %v, want ErrStopped", err)
	}
	if s.Iteration() != 0 {
		t.Errorf("a halted server applied a checkin: iteration %d", s.Iteration())
	}
	co, err := s.Checkout(ctx, "d1", token)
	if err != nil || !co.Done {
		t.Errorf("checkout after Halt = %+v, %v; want Done", co, err)
	}
	if d := s.ParamDelta(-1); !d.Done {
		t.Error("delta checkout after Halt is not Done")
	}
	if !s.Stopped() {
		t.Error("Stopped() = false after Halt")
	}
	st := s.ExportState()
	if st.Stopped {
		t.Fatal("the export carries the halt as learning state")
	}
	restored := newTestServer(t, ServerConfig{})
	if err := restored.ImportState(st); err != nil {
		t.Fatal(err)
	}
	token = register(t, restored, "d1")
	if err := restored.Checkin(ctx, "d1", token, validCheckin(0)); err != nil {
		t.Errorf("checkin on a server restored from a halted one's export: %v", err)
	}
}
