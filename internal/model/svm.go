package model

import (
	"fmt"

	"github.com/crowdml/crowdml/internal/linalg"
)

// LinearSVM is a multiclass linear support-vector machine with the
// Crammer–Singer hinge loss:
//
//	loss = max(0, 1 + max_{k≠y} w_k'x − w_y'x)
//
// The subgradient moves mass from the true class row to the most-violating
// row, so its single-sample L1 norm is at most 2‖x‖₁ ≤ 2, giving the same
// 4/b minibatch sensitivity as logistic regression. The paper lists SVM as
// one of the loss functions the framework supports (Section III-A).
type LinearSVM struct {
	classes int
	dim     int
}

var _ Model = (*LinearSVM)(nil)

// NewLinearSVM returns a C-class linear SVM over D-dimensional features.
func NewLinearSVM(classes, dim int) *LinearSVM {
	if classes < 2 || dim < 1 {
		panic(fmt.Sprintf("model: invalid SVM shape C=%d D=%d", classes, dim))
	}
	return &LinearSVM{classes: classes, dim: dim}
}

// Name implements Model.
func (m *LinearSVM) Name() string { return "multiclass-linear-svm" }

// Shape implements Model.
func (m *LinearSVM) Shape() (int, int) { return m.classes, m.dim }

// GradientSensitivity implements Model.
func (m *LinearSVM) GradientSensitivity() float64 { return 4 }

// Predict implements Model.
func (m *LinearSVM) Predict(w *linalg.Matrix, x []float64) int {
	var buf [stackClasses]float64
	scores := scoreSlice(&buf, m.classes)
	w.MulVec(x, scores)
	return linalg.ArgMax(scores)
}

// Misclassified implements Model.
func (m *LinearSVM) Misclassified(w *linalg.Matrix, s Sample) bool {
	return m.Predict(w, s.X) != s.Y
}

// violator returns the highest-scoring class other than y and its margin
// violation value 1 + w_k'x − w_y'x.
func (m *LinearSVM) violator(w *linalg.Matrix, s Sample) (k int, violation float64) {
	var buf [stackClasses]float64
	scores := scoreSlice(&buf, m.classes)
	w.MulVec(s.X, scores)
	k = -1
	best := 0.0
	for c := 0; c < m.classes; c++ {
		if c == s.Y {
			continue
		}
		if k == -1 || scores[c] > best {
			k, best = c, scores[c]
		}
	}
	return k, 1 + best - scores[s.Y]
}

// Loss implements Model.
func (m *LinearSVM) Loss(w *linalg.Matrix, s Sample) float64 {
	_, v := m.violator(w, s)
	if v < 0 {
		return 0
	}
	return v
}

// AddGradient implements Model. Subgradient: if the margin is violated,
// grad_{k*} += x and grad_y −= x; otherwise zero.
func (m *LinearSVM) AddGradient(w, grad *linalg.Matrix, s Sample) {
	k, v := m.violator(w, s)
	if v <= 0 || k < 0 {
		return
	}
	linalg.Axpy(1, s.X, grad.Row(k))
	linalg.Axpy(-1, s.X, grad.Row(s.Y))
}
