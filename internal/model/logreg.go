package model

import (
	"fmt"

	"github.com/crowdml/crowdml/internal/linalg"
)

// LogisticRegression is the multiclass logistic-regression model of Table I:
//
//	prediction: argmax_k w_k'x
//	loss:       −w_y'x + log Σ_l exp(w_l'x)
//	gradient:   ∇_{w_k} = x·(P(y=k|x) − I[y=k])
//
// Its single-sample gradient has L1 norm at most 2‖x‖₁ (the row of posterior
// coefficients has absolute sum 2(1−P_y) ≤ 2, Appendix A), so the averaged
// minibatch gradient has sensitivity 4/b — the constant in Eq. (10).
type LogisticRegression struct {
	classes int
	dim     int
}

var _ Model = (*LogisticRegression)(nil)

// NewLogisticRegression returns a C-class logistic regression over
// D-dimensional features. It panics if C < 2 or D < 1 (construction-time
// programming errors).
func NewLogisticRegression(classes, dim int) *LogisticRegression {
	if classes < 2 || dim < 1 {
		panic(fmt.Sprintf("model: invalid logistic regression shape C=%d D=%d", classes, dim))
	}
	return &LogisticRegression{classes: classes, dim: dim}
}

// Name implements Model.
func (m *LogisticRegression) Name() string { return "multiclass-logistic-regression" }

// Shape implements Model.
func (m *LogisticRegression) Shape() (int, int) { return m.classes, m.dim }

// GradientSensitivity implements Model (Theorem 1: S = 4).
func (m *LogisticRegression) GradientSensitivity() float64 { return 4 }

// scores computes w_k'x for every class into dst.
func (m *LogisticRegression) scores(w *linalg.Matrix, x []float64, dst []float64) {
	w.MulVec(x, dst)
}

// Predict implements Model.
func (m *LogisticRegression) Predict(w *linalg.Matrix, x []float64) int {
	var buf [stackClasses]float64
	scores := scoreSlice(&buf, m.classes)
	m.scores(w, x, scores)
	return linalg.ArgMax(scores)
}

// Misclassified implements Model.
func (m *LogisticRegression) Misclassified(w *linalg.Matrix, s Sample) bool {
	return m.Predict(w, s.X) != s.Y
}

// Loss implements Model: −w_y'x + logΣexp(w_l'x).
func (m *LogisticRegression) Loss(w *linalg.Matrix, s Sample) float64 {
	var buf [stackClasses]float64
	scores := scoreSlice(&buf, m.classes)
	m.scores(w, s.X, scores)
	return linalg.LogSumExp(scores) - scores[s.Y]
}

// AddGradient implements Model: grad_k += x·(P_k − I[y=k]).
func (m *LogisticRegression) AddGradient(w, grad *linalg.Matrix, s Sample) {
	var buf [stackClasses]float64
	probs := scoreSlice(&buf, m.classes)
	m.scores(w, s.X, probs)
	linalg.Softmax(probs, probs)
	for k := 0; k < m.classes; k++ {
		coef := probs[k]
		if k == s.Y {
			coef -= 1
		}
		if coef == 0 {
			continue
		}
		linalg.Axpy(coef, s.X, grad.Row(k))
	}
}

// Posterior writes P(y=k|x;w) for all k into dst (length C). Exposed for
// tests and for the analysis benchmarks.
func (m *LogisticRegression) Posterior(w *linalg.Matrix, x []float64, dst []float64) {
	m.scores(w, x, dst)
	linalg.Softmax(dst, dst)
}
