package model

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/rng"
)

// numericalGradient estimates ∇_w Loss by central differences.
func numericalGradient(m Model, w *linalg.Matrix, s Sample) *linalg.Matrix {
	const h = 1e-6
	c, d := m.Shape()
	g := linalg.NewMatrix(c, d)
	for i := 0; i < c; i++ {
		for j := 0; j < d; j++ {
			orig := w.At(i, j)
			w.Set(i, j, orig+h)
			lp := m.Loss(w, s)
			w.Set(i, j, orig-h)
			lm := m.Loss(w, s)
			w.Set(i, j, orig)
			g.Set(i, j, (lp-lm)/(2*h))
		}
	}
	return g
}

func randomSample(r *rng.RNG, classes, dim int) Sample {
	x := make([]float64, dim)
	for i := range x {
		x[i] = r.Uniform(-1, 1)
	}
	linalg.NormalizeL1(x)
	return Sample{X: x, Y: r.Intn(classes)}
}

func randomParams(r *rng.RNG, m Model) *linalg.Matrix {
	w := NewParams(m)
	for i := range w.Data() {
		w.Data()[i] = r.Uniform(-1, 1)
	}
	return w
}

func TestLogRegGradientMatchesNumerical(t *testing.T) {
	r := rng.New(1)
	m := NewLogisticRegression(4, 6)
	for trial := 0; trial < 20; trial++ {
		w := randomParams(r, m)
		s := randomSample(r, 4, 6)
		analytic := NewParams(m)
		m.AddGradient(w, analytic, s)
		numeric := numericalGradient(m, w, s)
		for i := range analytic.Data() {
			if math.Abs(analytic.Data()[i]-numeric.Data()[i]) > 1e-4 {
				t.Fatalf("trial %d: gradient mismatch at %d: analytic %v numeric %v",
					trial, i, analytic.Data()[i], numeric.Data()[i])
			}
		}
	}
}

func TestLogRegPredictUsesArgmaxScore(t *testing.T) {
	m := NewLogisticRegression(3, 2)
	w := NewParams(m)
	w.Set(2, 0, 5) // class 2 wins when x[0] > 0
	if got := m.Predict(w, []float64{1, 0}); got != 2 {
		t.Errorf("Predict = %d, want 2", got)
	}
	if got := m.Predict(w, []float64{-1, 0}); got == 2 {
		t.Errorf("Predict = %d, want not 2", got)
	}
}

func TestLogRegLossAtZeroIsLogC(t *testing.T) {
	m := NewLogisticRegression(10, 5)
	w := NewParams(m)
	s := Sample{X: []float64{0.2, 0.2, 0.2, 0.2, 0.2}, Y: 3}
	if got, want := m.Loss(w, s), math.Log(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("Loss at w=0 is %v, want log(10)=%v", got, want)
	}
}

// averagedGradient computes g̃ = (1/b)Σ∇l over the minibatch (no λw term),
// exactly as Device Routine 2 does.
func averagedGradient(m Model, w *linalg.Matrix, batch []Sample) *linalg.Matrix {
	g := NewParams(m)
	for _, s := range batch {
		m.AddGradient(w, g, s)
	}
	g.Scale(1 / float64(len(batch)))
	return g
}

// TestLogRegSensitivityBound is the central property behind Theorem 1:
// for any two minibatches of size b differing in exactly one sample (with
// ‖x‖₁ ≤ 1), the averaged gradients differ by at most 4/b in L1 norm.
func TestLogRegSensitivityBound(t *testing.T) {
	r := rng.New(3)
	m := NewLogisticRegression(6, 10)
	f := func(seed uint32, bRaw uint8) bool {
		local := rng.New(uint64(seed))
		b := 1 + int(bRaw%32)
		w := randomParams(local, m)
		batch := make([]Sample, b)
		for i := range batch {
			batch[i] = randomSample(local, 6, 10)
		}
		g1 := averagedGradient(m, w, batch)
		// Replace one sample (a neighboring dataset).
		idx := local.Intn(b)
		batch[idx] = randomSample(local, 6, 10)
		g2 := averagedGradient(m, w, batch)
		diff := make([]float64, len(g1.Data()))
		linalg.Sub(g1.Data(), g2.Data(), diff)
		bound := m.GradientSensitivity() / float64(b)
		return linalg.Norm1(diff) <= bound*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: nil}); err != nil {
		t.Error(err)
	}
	_ = r
}

// Per-sample gradient L1 norm is at most 2 (‖x‖₁ ≤ 1): the row-coefficient
// bound of Appendix A.
func TestLogRegPerSampleGradientL1Bound(t *testing.T) {
	r := rng.New(4)
	m := NewLogisticRegression(10, 50)
	for trial := 0; trial < 100; trial++ {
		w := randomParams(r, m)
		s := randomSample(r, 10, 50)
		g := NewParams(m)
		m.AddGradient(w, g, s)
		if n := g.Norm1(); n > 2+1e-9 {
			t.Fatalf("per-sample gradient L1 = %v > 2", n)
		}
	}
}

func TestLogRegTrainsOnSeparableData(t *testing.T) {
	// Two well-separated classes in 2D must be learnable by plain SGD.
	r := rng.New(5)
	m := NewLogisticRegression(2, 2)
	w := NewParams(m)
	makeSample := func() Sample {
		y := r.Intn(2)
		sign := float64(2*y - 1)
		x := []float64{sign * (0.5 + 0.1*r.Gaussian()), 0.1 * r.Gaussian()}
		linalg.NormalizeL1(x)
		// NormalizeL1 can flip nothing; keep label consistent with x[0] sign.
		if x[0] >= 0 {
			y = 1
		} else {
			y = 0
		}
		return Sample{X: x, Y: y}
	}
	for i := 1; i <= 2000; i++ {
		s := makeSample()
		g := NewParams(m)
		m.AddGradient(w, g, s)
		w.AddScaled(-0.5, g)
	}
	errs := 0
	const n = 500
	for i := 0; i < n; i++ {
		s := makeSample()
		if m.Misclassified(w, s) {
			errs++
		}
	}
	if frac := float64(errs) / n; frac > 0.05 {
		t.Errorf("test error %v after training on separable data", frac)
	}
}

func TestNewLogisticRegressionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for C=1")
		}
	}()
	NewLogisticRegression(1, 5)
}
