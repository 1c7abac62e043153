package model

import (
	"fmt"
	"math"
	"testing"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/rng"
)

// TestPerSampleScoresAllocateNothing: a device scores every sample of
// every minibatch twice (Misclassified for n_e, AddGradient for the
// gradient). Up to stackClasses classes the C scores live on the stack,
// so none of the per-sample methods allocates.
func TestPerSampleScoresAllocateNothing(t *testing.T) {
	r := rng.New(11)
	for _, m := range []Model{NewLogisticRegression(10, 50), NewLinearSVM(10, 50)} {
		w := randomParams(r, m)
		grad := NewParams(m)
		s := randomSample(r, 10, 50)
		for name, f := range map[string]func(){
			"Predict":       func() { m.Predict(w, s.X) },
			"Misclassified": func() { m.Misclassified(w, s) },
			"Loss":          func() { m.Loss(w, s) },
			"AddGradient":   func() { m.AddGradient(w, grad, s) },
		} {
			if n := testing.AllocsPerRun(100, f); n != 0 {
				t.Errorf("%s.%s at C = 10: %v allocations per call, want 0", m.Name(), name, n)
			}
		}
	}
}

// referenceLogReg and referenceSVM are the per-sample methods as they
// were written before the scores moved to the stack: a fresh heap slice
// per call. Whether the scores sit on the stack or on the heap must not
// move a bit of any result, on either side of stackClasses.
func referenceLogReg(w *linalg.Matrix, s Sample, grad *linalg.Matrix) (pred int, loss float64) {
	scores := make([]float64, w.Rows())
	w.MulVec(s.X, scores)
	pred = linalg.ArgMax(scores)
	loss = linalg.LogSumExp(scores) - scores[s.Y]
	linalg.Softmax(scores, scores)
	for k, p := range scores {
		if k == s.Y {
			p -= 1
		}
		if p != 0 {
			linalg.Axpy(p, s.X, grad.Row(k))
		}
	}
	return pred, loss
}

func referenceSVM(w *linalg.Matrix, s Sample, grad *linalg.Matrix) (pred int, loss float64) {
	scores := make([]float64, w.Rows())
	w.MulVec(s.X, scores)
	pred = linalg.ArgMax(scores)
	k, best := -1, 0.0
	for c := range scores {
		if c != s.Y && (k == -1 || scores[c] > best) {
			k, best = c, scores[c]
		}
	}
	if v := 1 + best - scores[s.Y]; v > 0 {
		loss = v
		linalg.Axpy(1, s.X, grad.Row(k))
		linalg.Axpy(-1, s.X, grad.Row(s.Y))
	}
	return pred, loss
}

func TestPerSampleScoresBitIdentical(t *testing.T) {
	r := rng.New(12)
	for _, classes := range []int{2, 10, stackClasses, stackClasses + 1, 20} {
		for _, tc := range []struct {
			m   Model
			ref func(*linalg.Matrix, Sample, *linalg.Matrix) (int, float64)
		}{
			{NewLogisticRegression(classes, 30), referenceLogReg},
			{NewLinearSVM(classes, 30), referenceSVM},
		} {
			name := fmt.Sprintf("%s C=%d", tc.m.Name(), classes)
			got, want := NewParams(tc.m), NewParams(tc.m)
			for trial := 0; trial < 25; trial++ {
				w := randomParams(r, tc.m)
				s := randomSample(r, classes, 30)
				tc.m.AddGradient(w, got, s)
				pred, loss := tc.ref(w, s, want)
				if p := tc.m.Predict(w, s.X); p != pred {
					t.Fatalf("%s trial %d: Predict = %d, reference %d", name, trial, p, pred)
				}
				if l := tc.m.Loss(w, s); math.Float64bits(l) != math.Float64bits(loss) {
					t.Fatalf("%s trial %d: Loss = %v, reference %v", name, trial, l, loss)
				}
			}
			for i, v := range got.Data() {
				if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
					t.Fatalf("%s: accumulated gradient[%d] = %v, reference %v", name, i, v, want.Data()[i])
				}
			}
		}
	}
}
