package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/rng"
)

// fakeTransport is a scriptable Transport for device-side tests.
type fakeTransport struct {
	params      []float64
	version     int
	done        bool
	failCO      bool
	failCI      bool
	ciErr       error // returned by Checkin when set
	checkins    []*CheckinRequest
	attempts    []*CheckinRequest // every Checkin call, failed ones too
	checkoutCnt int
}

var _ Transport = (*fakeTransport)(nil)

func (f *fakeTransport) Checkout(ctx context.Context, id, token string) (*CheckoutResponse, error) {
	f.checkoutCnt++
	if f.failCO {
		return nil, errors.New("network down")
	}
	return &CheckoutResponse{Params: append([]float64(nil), f.params...), Version: f.version, Done: f.done}, nil
}

func (f *fakeTransport) Checkin(ctx context.Context, id, token string, req *CheckinRequest) error {
	cp := *req
	cp.Grad = append([]float64(nil), req.Grad...)
	cp.LabelCounts = append([]int(nil), req.LabelCounts...)
	f.attempts = append(f.attempts, &cp)
	if f.failCI {
		return errors.New("network down")
	}
	if f.ciErr != nil {
		return f.ciErr
	}
	f.checkins = append(f.checkins, &cp)
	return nil
}

func newTestDevice(t *testing.T, cfg DeviceConfig) (*Device, *fakeTransport) {
	t.Helper()
	ft := &fakeTransport{params: make([]float64, 2*3)}
	if cfg.ID == "" {
		cfg.ID = "dev"
	}
	if cfg.Model == nil {
		cfg.Model = model.NewLogisticRegression(2, 3)
	}
	if cfg.Transport == nil {
		cfg.Transport = ft
	}
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d, ft
}

func sampleFor(y int) model.Sample {
	x := []float64{0.5, 0.3, 0.2}
	if y == 1 {
		x = []float64{0.1, 0.4, 0.5}
	}
	return model.Sample{X: x, Y: y}
}

func TestNewDeviceValidation(t *testing.T) {
	m := model.NewLogisticRegression(2, 3)
	ft := &fakeTransport{}
	tests := []struct {
		name string
		cfg  DeviceConfig
	}{
		{name: "missing id", cfg: DeviceConfig{Model: m, Transport: ft}},
		{name: "missing model", cfg: DeviceConfig{ID: "d", Transport: ft}},
		{name: "missing transport", cfg: DeviceConfig{ID: "d", Model: m}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewDevice(tt.cfg); err == nil {
				t.Error("expected config error")
			}
		})
	}
}

// TestDeviceRefusesBadSample: a sample the privacy mechanism cannot cover
// is refused with ErrBadSample before it is buffered — not clipped, not
// sent — and counted by Refused. A label outside [0, C) used to panic at
// the flush; the others were sanitized with a sensitivity bound they
// exceed, releasing more than the configured ε.
func TestDeviceRefusesBadSample(t *testing.T) {
	tests := []struct {
		name string
		s    model.Sample
		ok   bool
	}{
		{name: "normalized", s: model.Sample{X: []float64{0.5, -0.3, 0.2}, Y: 1}, ok: true},
		{name: "l1 within tolerance", s: model.Sample{X: []float64{0.5, 0.5, 1e-10}, Y: 0}, ok: true},
		{name: "zero features", s: model.Sample{X: []float64{0, 0, 0}, Y: 0}, ok: true},
		{name: "label negative", s: model.Sample{X: []float64{0.5, 0.3, 0.2}, Y: -1}},
		{name: "label equals classes", s: model.Sample{X: []float64{0.5, 0.3, 0.2}, Y: 2}},
		{name: "too few features", s: model.Sample{X: []float64{0.5, 0.5}, Y: 0}},
		{name: "too many features", s: model.Sample{X: []float64{0.25, 0.25, 0.25, 0.25}, Y: 0}},
		{name: "NaN feature", s: model.Sample{X: []float64{math.NaN(), 0, 0}, Y: 0}},
		{name: "infinite feature", s: model.Sample{X: []float64{math.Inf(-1), 0, 0}, Y: 0}},
		{name: "l1 above one", s: model.Sample{X: []float64{0.5, 0.5, 1e-8}, Y: 0}},
		{name: "unnormalized", s: model.Sample{X: []float64{3, -4, 5}, Y: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, ft := newTestDevice(t, DeviceConfig{Minibatch: 1})
			err := d.AddSample(context.Background(), tt.s)
			if tt.ok {
				if err != nil || len(ft.checkins) != 1 || d.Refused() != 0 {
					t.Fatalf("AddSample = %v, %d checkins, Refused %d; want accepted and sent", err, len(ft.checkins), d.Refused())
				}
				return
			}
			if !errors.Is(err, ErrBadSample) {
				t.Fatalf("AddSample = %v, want ErrBadSample", err)
			}
			if d.Refused() != 1 || d.Buffered() != 0 || ft.checkoutCnt != 0 || len(ft.attempts) != 0 {
				t.Errorf("Refused %d, Buffered %d, %d checkouts, %d checkins; want 1, 0, 0, 0",
					d.Refused(), d.Buffered(), ft.checkoutCnt, len(ft.attempts))
			}
		})
	}
}

func TestDeviceFlushOnMinibatch(t *testing.T) {
	d, ft := newTestDevice(t, DeviceConfig{Minibatch: 3})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := d.AddSample(ctx, sampleFor(i%2)); err != nil {
			t.Fatalf("AddSample: %v", err)
		}
	}
	if len(ft.checkins) != 0 {
		t.Fatal("flushed before minibatch filled")
	}
	if err := d.AddSample(ctx, sampleFor(0)); err != nil {
		t.Fatalf("AddSample: %v", err)
	}
	if len(ft.checkins) != 1 {
		t.Fatalf("expected 1 checkin, got %d", len(ft.checkins))
	}
	ci := ft.checkins[0]
	if ci.NumSamples != 3 {
		t.Errorf("NumSamples = %d, want 3", ci.NumSamples)
	}
	if got := ci.LabelCounts[0] + ci.LabelCounts[1]; got != 3 {
		t.Errorf("label counts sum = %d, want 3 (no privacy)", got)
	}
	if d.Buffered() != 0 {
		t.Errorf("buffer not reset: %d", d.Buffered())
	}
	if d.Checkins() != 1 {
		t.Errorf("Checkins = %d", d.Checkins())
	}
}

func TestDeviceGradientMatchesDirectComputation(t *testing.T) {
	m := model.NewLogisticRegression(2, 3)
	d, ft := newTestDevice(t, DeviceConfig{Model: m, Minibatch: 2})
	// Non-zero server params so the gradient depends on w.
	ft.params = []float64{0.1, -0.2, 0.3, 0.4, 0, -0.1}
	ctx := context.Background()
	s1, s2 := sampleFor(0), sampleFor(1)
	if err := d.AddSample(ctx, s1); err != nil {
		t.Fatal(err)
	}
	if err := d.AddSample(ctx, s2); err != nil {
		t.Fatal(err)
	}
	w, _ := linalg.NewMatrixFrom(2, 3, ft.params)
	want := model.NewParams(m)
	m.AddGradient(w, want, s1)
	m.AddGradient(w, want, s2)
	want.Scale(0.5)
	got := ft.checkins[0].Grad
	if !linalg.Equal(got, want.Data(), 1e-12) {
		t.Errorf("device gradient %v, want %v", got, want.Data())
	}
}

func TestDeviceBufferCap(t *testing.T) {
	// Minibatch 2 but checkout always fails, buffer cap 4: samples beyond
	// 4 are dropped with ErrBufferFull (Device Routine 1).
	d, ft := newTestDevice(t, DeviceConfig{Minibatch: 2, MaxBuffer: 4})
	ft.failCO = true
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		err := d.AddSample(ctx, sampleFor(0))
		if i >= 1 && err == nil {
			t.Fatalf("sample %d: expected flush error while network down", i)
		}
	}
	if err := d.AddSample(ctx, sampleFor(0)); !errors.Is(err, ErrBufferFull) {
		t.Errorf("5th sample error = %v, want ErrBufferFull", err)
	}
	if d.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", d.Dropped())
	}
	// Network recovers: next flush sends all 4 buffered samples (Remark 1).
	ft.failCO = false
	if err := d.Flush(ctx); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	if len(ft.checkins) != 1 || ft.checkins[0].NumSamples != 4 {
		t.Fatalf("expected one checkin with 4 samples, got %+v", ft.checkins)
	}
}

// TestDeviceCheckinFailureRetains: a minibatch is sanitized once. After a
// failed checkin the device retains the sanitized request, not the samples
// (Buffered is 0), and the retry resends it bit for bit — same noisy
// gradient, same noisy counts, same Version — without a second checkout,
// although the model has moved on meanwhile. Fresh noise over the same
// samples would release them twice. A checkin refused as malformed is
// dropped instead: resending it cannot help.
func TestDeviceCheckinFailureRetains(t *testing.T) {
	d, ft := newTestDevice(t, DeviceConfig{Minibatch: 2,
		Budget: privacy.Budget{Gradient: 0.5, ErrCount: 0.5, LabelCount: 0.5}})
	ctx := context.Background()
	ft.version, ft.failCI = 3, true
	if err := d.AddSample(ctx, sampleFor(0)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddSample(ctx, sampleFor(1)); err == nil {
		t.Fatal("expected checkin failure")
	}
	if d.Buffered() != 0 {
		t.Errorf("buffer = %d after the minibatch was sanitized, want 0", d.Buffered())
	}
	ft.version, ft.failCI = 9, false
	if err := d.Flush(ctx); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if ft.checkoutCnt != 1 || len(ft.attempts) != 2 || len(ft.checkins) != 1 || d.Checkins() != 1 {
		t.Fatalf("%d checkouts, %d checkin attempts, %d delivered; want 1, 2, 1", ft.checkoutCnt, len(ft.attempts), len(ft.checkins))
	}
	failed, resent := ft.attempts[0], ft.checkins[0]
	for i := range failed.Grad {
		if math.Float64bits(failed.Grad[i]) != math.Float64bits(resent.Grad[i]) {
			t.Fatalf("resent gradient differs at %d: %v, first sent %v", i, resent.Grad[i], failed.Grad[i])
		}
	}
	if !reflect.DeepEqual(failed, resent) || resent.Version != 3 {
		t.Errorf("resent %+v, first sent %+v (Version 3)", resent, failed)
	}

	ft.ciErr = fmt.Errorf("refused: %w", ErrBadCheckin)
	if err := d.AddSample(ctx, sampleFor(0)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddSample(ctx, sampleFor(1)); !errors.Is(err, ErrBadCheckin) {
		t.Fatalf("error = %v, want ErrBadCheckin", err)
	}
	ft.ciErr = nil
	if err := d.Flush(ctx); err != nil || len(ft.attempts) != 3 || d.Checkins() != 1 {
		t.Errorf("after a refused checkin Flush = %v with %d attempts, %d checkins; want nothing resent", err, len(ft.attempts), d.Checkins())
	}
}

func TestDeviceStopsWhenServerDone(t *testing.T) {
	d, ft := newTestDevice(t, DeviceConfig{Minibatch: 1})
	ft.done = true
	if err := d.AddSample(context.Background(), sampleFor(0)); !errors.Is(err, ErrStopped) {
		t.Errorf("error = %v, want ErrStopped", err)
	}
	if !d.Done() {
		t.Error("device should latch Done")
	}
	if err := d.AddSample(context.Background(), sampleFor(0)); !errors.Is(err, ErrStopped) {
		t.Error("samples after Done should be rejected")
	}
}

func TestDeviceFlushEmptyIsNoop(t *testing.T) {
	d, ft := newTestDevice(t, DeviceConfig{Minibatch: 5})
	if err := d.Flush(context.Background()); err != nil {
		t.Fatalf("empty Flush: %v", err)
	}
	if ft.checkoutCnt != 0 {
		t.Error("empty flush should not contact the server")
	}
}

func TestDevicePrivacyPerturbsGradient(t *testing.T) {
	// With a tiny ε the sanitized gradient must differ from the clean one;
	// counters must also be perturbed.
	mk := func(budget privacy.Budget, seed uint64) *CheckinRequest {
		d, ft := newTestDevice(t, DeviceConfig{
			Minibatch: 2, Budget: budget, Seed: seed,
		})
		ctx := context.Background()
		if err := d.AddSample(ctx, sampleFor(0)); err != nil {
			t.Fatal(err)
		}
		if err := d.AddSample(ctx, sampleFor(1)); err != nil {
			t.Fatal(err)
		}
		return ft.checkins[0]
	}
	clean := mk(privacy.Budget{}, 1)
	noisy := mk(privacy.Budget{Gradient: 0.5, ErrCount: 0.5, LabelCount: 0.5}, 1)
	if linalg.Equal(clean.Grad, noisy.Grad, 1e-9) {
		t.Error("gradient unperturbed despite enabled budget")
	}
	// The raw sample count is transmitted unperturbed per the paper.
	if noisy.NumSamples != 2 {
		t.Errorf("NumSamples = %d, want 2 (unperturbed)", noisy.NumSamples)
	}
}

func TestDeviceEndToEndWithServer(t *testing.T) {
	// Device + server via a closure transport: full Algorithm 1+2 loop.
	m := model.NewLogisticRegression(2, 3)
	srv := newTestServer(t, ServerConfig{Model: m})
	token := register(t, srv, "d1")
	d, err := NewDevice(DeviceConfig{
		ID: "d1", Token: token, Model: m, Minibatch: 2,
		Transport: srv,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := d.AddSample(ctx, sampleFor(i%2)); err != nil {
			t.Fatalf("AddSample %d: %v", i, err)
		}
	}
	if srv.Iteration() != 10 {
		t.Errorf("server iterations = %d, want 10", srv.Iteration())
	}
	st := srv.ExportState().Devices["d1"]
	if st.Samples != 20 {
		t.Errorf("server counted %d samples, want 20", st.Samples)
	}
}

func TestDeviceDefaultsApplied(t *testing.T) {
	d, _ := newTestDevice(t, DeviceConfig{Minibatch: 0})
	if d.cfg.Minibatch != 1 {
		t.Errorf("default minibatch = %d, want 1", d.cfg.Minibatch)
	}
	if d.cfg.MaxBuffer != 8 {
		t.Errorf("default max buffer = %d, want 8", d.cfg.MaxBuffer)
	}
}

func ExampleDevice() {
	fmt.Println("see examples/quickstart for a runnable end-to-end example")
	// Output: see examples/quickstart for a runnable end-to-end example
}

// TestDeviceSecureNoiseDiffersAcrossRuns: without a seed the noise comes
// from crypto/rand, so two identically configured devices given the same
// sample send different gradients and counts. A seeded stream would send
// the same ones, which a server knowing the seed could subtract.
func TestDeviceSecureNoiseDiffersAcrossRuns(t *testing.T) {
	a, b := noisyCheckin(t, 0), noisyCheckin(t, 0)
	if linalg.Equal(a.Grad, b.Grad, 1e-12) {
		t.Error("unseeded noise produced identical gradients on two runs")
	}
	if reflect.DeepEqual(a.LabelCounts, b.LabelCounts) && a.ErrCount == b.ErrCount {
		t.Errorf("unseeded noise produced identical counts on two runs: %d %v", a.ErrCount, a.LabelCounts)
	}
}

// TestDeviceSeededNoiseRepeats: a non-zero seed reproduces the whole
// sanitized request bit for bit, as simulations and tests need.
func TestDeviceSeededNoiseRepeats(t *testing.T) {
	a, b := noisyCheckin(t, 42), noisyCheckin(t, 42)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 42 sent %+v, then %+v", a, b)
	}
	for i := range a.Grad {
		if math.Float64bits(a.Grad[i]) != math.Float64bits(b.Grad[i]) {
			t.Fatalf("seed 42: coordinate %d differs in its bits", i)
		}
	}
}

// noisyCheckin is the request a fresh device with the given seed sends
// for one sample, at budgets noisy enough that equal requests twice would
// not happen by chance.
func noisyCheckin(t *testing.T, seed uint64) *CheckinRequest {
	t.Helper()
	d, ft := newTestDevice(t, DeviceConfig{
		Minibatch: 1, Seed: seed,
		Budget: privacy.Budget{Gradient: 1, ErrCount: 0.01, LabelCount: 0.01},
	})
	if err := d.AddSample(context.Background(), sampleFor(0)); err != nil {
		t.Fatal(err)
	}
	return ft.checkins[0]
}

// referenceStep is Device Routines 2–3 as Device.Flush wrote them out
// before DeviceStep was extracted — kept here, independent of device.go,
// as the fixed point DeviceStep and Flush are both held to.
func referenceStep(cfg *DeviceConfig, co *CheckoutResponse, batch []model.Sample, r *rng.RNG) *CheckinRequest {
	classes, dim := cfg.Model.Shape()
	w, _ := linalg.NewMatrixFrom(classes, dim, co.Params)
	ne := 0
	nky := make([]int, classes)
	for _, s := range batch {
		nky[s.Y]++
		if cfg.Model.Misclassified(w, s) {
			ne++
		}
	}
	g := optimizer.AverageGradient(cfg.Model, w, batch, 0)
	privacy.PerturbGradient(g, len(batch), cfg.Model.GradientSensitivity(), cfg.Budget.Gradient, r)
	return &CheckinRequest{
		Grad:        g.Data(),
		NumSamples:  len(batch),
		ErrCount:    privacy.SanitizeCount(ne, cfg.Budget.ErrCount, r),
		LabelCounts: privacy.SanitizeCounts(nky, cfg.Budget.LabelCount, r),
		Version:     co.Version,
	}
}

var (
	stepParams = []float64{0.3, -0.2, 0.1, 0, 0.4, -0.5}
	stepBatch  = []model.Sample{sampleFor(0), sampleFor(1), sampleFor(1), sampleFor(0)}
)

// TestDeviceStepMatchesFlush holds the extracted Device Routines 2–3, and
// the Flush that now calls them, to the routine as it was written before
// the extraction: for the same checkout, minibatch and seed, all three
// build the same request and leave their random streams in the same place
// — same draws, same order.
func TestDeviceStepMatchesFlush(t *testing.T) {
	budget := privacy.Budget{Gradient: 10, ErrCount: 1, LabelCount: 0.5}
	for _, tc := range []struct {
		name   string
		budget privacy.Budget
	}{
		{"plain", privacy.Budget{}},
		{"budget", budget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DeviceConfig{
				Minibatch: len(stepBatch), Seed: 77,
				Budget: tc.budget,
			}
			ref, _ := newTestDevice(t, cfg) // same seed, untouched stream
			co := &CheckoutResponse{Params: stepParams, Version: 9}
			want := referenceStep(&ref.cfg, co, stepBatch, ref.rng)
			next := ref.rng.Float64()

			twin, _ := newTestDevice(t, cfg)
			got, err := DeviceStep(&twin.cfg, nil, co, stepBatch, twin.rng)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("DeviceStep built %+v, the reference routine %+v", got, want)
			}
			if a := twin.rng.Float64(); a != next {
				t.Errorf("DeviceStep left its stream out of step: next draw %v, want %v", a, next)
			}

			d, ft := newTestDevice(t, cfg)
			ft.params, ft.version = stepParams, co.Version
			for _, s := range stepBatch {
				if err := d.AddSample(context.Background(), s); err != nil {
					t.Fatal(err)
				}
			}
			if len(ft.checkins) != 1 {
				t.Fatalf("flushes = %d, want 1", len(ft.checkins))
			}
			if !reflect.DeepEqual(ft.checkins[0], want) {
				t.Errorf("Flush sent %+v, the reference routine %+v", ft.checkins[0], want)
			}
			if a := d.rng.Float64(); a != next {
				t.Errorf("Flush left the device's stream out of step: next draw %v, want %v", a, next)
			}
		})
	}
}

// TestDeviceStepCustomMechanism covers the one branch the extraction
// added: a non-nil mechanism replaces Eq. (10) — it sees the averaged
// gradient and the training count, draws before the counters do, and the
// Laplace mechanism is not applied on top — while the counts are still
// sanitized by Eqs. (11)–(12) from the same stream.
func TestDeviceStepCustomMechanism(t *testing.T) {
	m := model.NewLogisticRegression(2, 3)
	cfg := &DeviceConfig{
		Model:  m,
		Budget: privacy.Budget{Gradient: 10, ErrCount: 0.2, LabelCount: 0.2},
	}
	co := &CheckoutResponse{Params: stepParams, Version: 9}
	w, err := linalg.NewMatrixFrom(2, 3, stepParams)
	if err != nil {
		t.Fatal(err)
	}
	clean := optimizer.AverageGradient(m, w, stepBatch, 0).Data()
	ne, nky := 0, make([]int, 2)
	for _, s := range stepBatch {
		nky[s.Y]++
		if m.Misclassified(w, s) {
			ne++
		}
	}

	calls, gotN := 0, 0
	var seen []float64
	mech := func(g *linalg.Matrix, n int, r *rng.RNG) {
		calls++
		gotN = n
		seen = append([]float64(nil), g.Data()...)
		g.Data()[0] = r.Float64()
	}
	got, err := DeviceStep(cfg, mech, co, stepBatch, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || gotN != len(stepBatch) {
		t.Errorf("mechanism called %d times with n = %d, want once with n = %d", calls, gotN, len(stepBatch))
	}
	if !reflect.DeepEqual(seen, clean) {
		t.Errorf("mechanism saw %v, want the clean averaged gradient %v", seen, clean)
	}

	// The expected request, drawn in the documented order from a twin
	// stream: the mechanism's draw, then ErrCount, then LabelCounts.
	r := rng.New(5)
	wantGrad := append([]float64(nil), clean...)
	wantGrad[0] = r.Float64()
	want := &CheckinRequest{
		Grad:        wantGrad,
		NumSamples:  len(stepBatch),
		ErrCount:    privacy.SanitizeCount(ne, cfg.Budget.ErrCount, r),
		LabelCounts: privacy.SanitizeCounts(nky, cfg.Budget.LabelCount, r),
		Version:     co.Version,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DeviceStep built %+v, want %+v", got, want)
	}
	if got.ErrCount == ne && reflect.DeepEqual(got.LabelCounts, nky) {
		t.Errorf("counts left the device unsanitized: %d %v", got.ErrCount, got.LabelCounts)
	}
}
