package optimizer

import (
	"math"
	"testing"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/rng"
)

func TestInvSqrtSchedule(t *testing.T) {
	s := InvSqrt{C: 2}
	tests := []struct {
		t    int
		want float64
	}{
		{t: 1, want: 2},
		{t: 4, want: 1},
		{t: 100, want: 0.2},
		{t: 0, want: 2}, // clamped to t=1
	}
	for _, tt := range tests {
		if got := s.Rate(tt.t); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Rate(%d) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if s.Name() == "" {
		t.Error("empty schedule name")
	}
}

func TestConstantAndInvT(t *testing.T) {
	c := Constant{C: 0.5}
	if c.Rate(1) != 0.5 || c.Rate(1000) != 0.5 {
		t.Error("Constant schedule must not vary")
	}
	it := InvT{C: 3}
	if got := it.Rate(3); math.Abs(got-1) > 1e-12 {
		t.Errorf("InvT.Rate(3) = %v, want 1", got)
	}
	if it.Rate(0) != 3 {
		t.Errorf("InvT.Rate(0) should clamp to t=1")
	}
	if c.Name() == "" || it.Name() == "" {
		t.Error("empty names")
	}
}

func TestSGDUpdate(t *testing.T) {
	u := &SGD{Schedule: Constant{C: 0.1}}
	w, _ := linalg.NewMatrixFrom(1, 2, []float64{1, 1})
	g, _ := linalg.NewMatrixFrom(1, 2, []float64{2, -2})
	u.Update(w, g, 1)
	if !linalg.Equal(w.Data(), []float64{0.8, 1.2}, 1e-12) {
		t.Errorf("after update w = %v", w.Data())
	}
}

func TestSGDProjection(t *testing.T) {
	u := &SGD{Schedule: Constant{C: 1}, Radius: 1}
	w := linalg.NewMatrix(1, 2)
	g, _ := linalg.NewMatrixFrom(1, 2, []float64{-3, -4}) // pushes w to (3,4)
	u.Update(w, g, 1)
	if n := linalg.Norm2(w.Data()); math.Abs(n-1) > 1e-9 {
		t.Errorf("projected norm = %v, want 1", n)
	}
	if u.Name() == "" {
		t.Error("empty updater name")
	}
}

func TestAdaGradShrinksSteps(t *testing.T) {
	u := &AdaGrad{Eta: 1}
	w := linalg.NewMatrix(1, 1)
	g, _ := linalg.NewMatrixFrom(1, 1, []float64{1})
	u.Update(w, g, 1)
	first := -w.At(0, 0) // step size of first update
	before := w.At(0, 0)
	u.Update(w, g, 2)
	second := before - w.At(0, 0)
	if second >= first {
		t.Errorf("AdaGrad step grew: first %v, second %v", first, second)
	}
	u.Reset()
	w2 := linalg.NewMatrix(1, 1)
	u.Update(w2, g, 1)
	if math.Abs(-w2.At(0, 0)-first) > 1e-12 {
		t.Error("Reset did not restore initial behaviour")
	}
	if u.Name() == "" {
		t.Error("empty name")
	}
}

func TestAdaGradProjection(t *testing.T) {
	u := &AdaGrad{Eta: 100, Radius: 0.5}
	w := linalg.NewMatrix(1, 2)
	g, _ := linalg.NewMatrixFrom(1, 2, []float64{-1, -1})
	u.Update(w, g, 1)
	if n := linalg.Norm2(w.Data()); n > 0.5+1e-9 {
		t.Errorf("AdaGrad ignored projection: norm %v", n)
	}
}

func TestAverageGradientEmptyBatch(t *testing.T) {
	m := model.NewLogisticRegression(2, 2)
	if g := AverageGradient(m, model.NewParams(m), nil, 0); g != nil {
		t.Error("empty batch should yield nil gradient")
	}
}

func TestAverageGradientMatchesManual(t *testing.T) {
	m := model.NewLogisticRegression(3, 4)
	r := rng.New(1)
	w := model.NewParams(m)
	for i := range w.Data() {
		w.Data()[i] = r.Uniform(-1, 1)
	}
	batch := make([]model.Sample, 5)
	for i := range batch {
		x := make([]float64, 4)
		for j := range x {
			x[j] = r.Uniform(-1, 1)
		}
		linalg.NormalizeL1(x)
		batch[i] = model.Sample{X: x, Y: r.Intn(3)}
	}
	lambda := 0.01
	got := AverageGradient(m, w, batch, lambda)

	want := model.NewParams(m)
	for _, s := range batch {
		m.AddGradient(w, want, s)
	}
	want.Scale(1.0 / 5)
	want.AddScaled(lambda, w)
	if !linalg.Equal(got.Data(), want.Data(), 1e-12) {
		t.Error("AverageGradient mismatch with manual computation")
	}
}

func TestAverageGradientLambdaZeroOmitsRegularizer(t *testing.T) {
	m := model.NewLogisticRegression(2, 2)
	w := model.NewParams(m)
	w.Set(0, 0, 100) // would dominate via λw if λ were applied
	s := model.Sample{X: []float64{0, 1}, Y: 0}
	g := AverageGradient(m, w, []model.Sample{s}, 0)
	// Gradient w.r.t. column 0 must be 0 since x[0] = 0.
	if g.At(0, 0) != 0 {
		t.Errorf("λ=0 gradient contains regularizer: %v", g.At(0, 0))
	}
}

// SGD with the paper's c/√t schedule must drive a convex quadratic to its
// minimum — the basic convergence sanity check behind all experiments.
func TestSGDConvergesOnQuadratic(t *testing.T) {
	u := &SGD{Schedule: InvSqrt{C: 0.5}}
	w, _ := linalg.NewMatrixFrom(1, 1, []float64{5})
	target := 2.0
	for step := 1; step <= 5000; step++ {
		g, _ := linalg.NewMatrixFrom(1, 1, []float64{w.At(0, 0) - target})
		u.Update(w, g, step)
	}
	if math.Abs(w.At(0, 0)-target) > 0.05 {
		t.Errorf("SGD converged to %v, want %v", w.At(0, 0), target)
	}
}

func TestMomentumAcceleratesAndResets(t *testing.T) {
	u := &Momentum{Schedule: Constant{C: 0.1}, Beta: 0.9}
	w := linalg.NewMatrix(1, 1)
	g, _ := linalg.NewMatrixFrom(1, 1, []float64{1})
	u.Update(w, g, 1)
	first := -w.At(0, 0)
	before := w.At(0, 0)
	u.Update(w, g, 2)
	second := before - w.At(0, 0)
	if second <= first {
		t.Errorf("momentum should accelerate: first %v, second %v", first, second)
	}
	u.Reset()
	w2 := linalg.NewMatrix(1, 1)
	u.Update(w2, g, 1)
	if -w2.At(0, 0) != first {
		t.Error("Reset did not clear velocity")
	}
	if u.Name() == "" {
		t.Error("empty name")
	}
}

func TestMomentumProjection(t *testing.T) {
	u := &Momentum{Schedule: Constant{C: 10}, Beta: 0, Radius: 1}
	w := linalg.NewMatrix(1, 2)
	g, _ := linalg.NewMatrixFrom(1, 2, []float64{-1, -1})
	u.Update(w, g, 1)
	if n := linalg.Norm2(w.Data()); n > 1+1e-9 {
		t.Errorf("projection ignored: norm %v", n)
	}
}

func TestMomentumConvergesOnQuadratic(t *testing.T) {
	u := &Momentum{Schedule: Constant{C: 0.05}, Beta: 0.8}
	w, _ := linalg.NewMatrixFrom(1, 1, []float64{5})
	for step := 1; step <= 3000; step++ {
		g, _ := linalg.NewMatrixFrom(1, 1, []float64{w.At(0, 0) - 2})
		u.Update(w, g, step)
	}
	if math.Abs(w.At(0, 0)-2) > 0.05 {
		t.Errorf("momentum converged to %v, want 2", w.At(0, 0))
	}
}

func TestClipBoundsGradient(t *testing.T) {
	inner := &SGD{Schedule: Constant{C: 1}}
	u := &Clip{Inner: inner, MaxNorm1: 2}
	w := linalg.NewMatrix(1, 2)
	g, _ := linalg.NewMatrixFrom(1, 2, []float64{30, -10}) // L1 = 40
	u.Update(w, g, 1)
	// Applied gradient is scaled to L1 = 2: w = -(1.5, -0.5).
	if !linalg.Equal(w.Data(), []float64{-1.5, 0.5}, 1e-12) {
		t.Errorf("clipped update w = %v", w.Data())
	}
	if u.Name() == "" {
		t.Error("empty name")
	}
}

func TestClipPassesSmallGradients(t *testing.T) {
	u := &Clip{Inner: &SGD{Schedule: Constant{C: 1}}, MaxNorm1: 10}
	w := linalg.NewMatrix(1, 2)
	g, _ := linalg.NewMatrixFrom(1, 2, []float64{1, -1})
	u.Update(w, g, 1)
	if !linalg.Equal(w.Data(), []float64{-1, 1}, 1e-12) {
		t.Errorf("small gradient modified: %v", w.Data())
	}
}

func TestClipDisabled(t *testing.T) {
	u := &Clip{Inner: &SGD{Schedule: Constant{C: 1}}, MaxNorm1: 0}
	w := linalg.NewMatrix(1, 1)
	g, _ := linalg.NewMatrixFrom(1, 1, []float64{100})
	u.Update(w, g, 1)
	if w.At(0, 0) != -100 {
		t.Errorf("disabled clip altered gradient: %v", w.At(0, 0))
	}
}

// TestStateExporterRoundTrip: AdaGrad and Momentum must export a COPY of
// their internal state and restore it bit-exactly, so a restored updater
// continues the trajectory the crashed one was on.
func TestStateExporterRoundTrip(t *testing.T) {
	newW := func() *linalg.Matrix {
		w, _ := linalg.NewMatrixFrom(1, 3, []float64{0.1, 0.2, 0.3})
		return w
	}
	newG := func(vals ...float64) *linalg.Matrix {
		g, _ := linalg.NewMatrixFrom(1, 3, vals)
		return g
	}
	for name, mk := range map[string]func() Updater{
		"AdaGrad":  func() Updater { return &AdaGrad{Eta: 0.5} },
		"Momentum": func() Updater { return &Momentum{Schedule: Constant{C: 0.5}, Beta: 0.9} },
		"Clip":     func() Updater { return &Clip{Inner: &AdaGrad{Eta: 0.5}, MaxNorm1: 100} },
	} {
		t.Run(name, func(t *testing.T) {
			orig, restored := mk(), mk()
			se := orig.(StateExporter)
			if got := se.AppendState(nil); got != nil {
				t.Fatalf("fresh updater exported %v, want nil", got)
			}
			wOrig := newW()
			orig.Update(wOrig, newG(0.5, -0.25, 1), 1)
			state := se.AppendState(nil)
			if len(state) != 3 {
				t.Fatalf("exported %d coordinates, want 3", len(state))
			}
			// The "crash" point: remember w after step 1, hand the exported
			// state to a fresh updater, and run the same step 2 on both.
			wRestored := newW()
			copy(wRestored.Data(), wOrig.Data())
			if err := restored.(StateExporter).ImportState(state); err != nil {
				t.Fatal(err)
			}
			snapshot := append([]float64(nil), state...)
			orig.Update(wOrig, newG(-1, 0.125, 0.75), 2)
			restored.Update(wRestored, newG(-1, 0.125, 0.75), 2)
			// The export was a copy: step 2 on the live updater must not
			// have reached back into it.
			if !slicesEqual(state, snapshot) {
				t.Fatal("AppendState(nil) returned a live alias, not a copy")
			}
			// Bit-exact continuation: identical parameters AND identical
			// internal state after the post-restore step.
			if !slicesEqual(wRestored.Data(), wOrig.Data()) {
				t.Errorf("restored trajectory w = %v, want %v", wRestored.Data(), wOrig.Data())
			}
			got := restored.(StateExporter).AppendState(nil)
			want := se.AppendState(nil)
			if !slicesEqual(got, want) {
				t.Errorf("restored state after step 2 = %v, want %v", got, want)
			}
		})
	}
}

// TestStateExporterImportReset: nil/empty imports reset the state.
func TestStateExporterImportReset(t *testing.T) {
	u := &AdaGrad{Eta: 0.5}
	w, _ := linalg.NewMatrixFrom(1, 2, []float64{0, 0})
	g, _ := linalg.NewMatrixFrom(1, 2, []float64{1, 1})
	u.Update(w, g, 1)
	if u.AppendState(nil) == nil {
		t.Fatal("state expected after an update")
	}
	if err := u.ImportState(nil); err != nil {
		t.Fatal(err)
	}
	if u.AppendState(nil) != nil {
		t.Error("nil import must reset the accumulators")
	}
}

func slicesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
