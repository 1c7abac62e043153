// Package model defines the classifier/predictor abstraction of Crowd-ML
// (Section III-A of the paper) and three concrete instances:
//
//   - multiclass logistic regression (Table I, used in every experiment),
//   - multiclass linear SVM with the Crammer–Singer hinge subgradient,
//   - ridge (L2) linear regression.
//
// A model knows how to compute per-sample loss and (sub)gradients against a
// parameter matrix W ∈ R^{C×D}, and exposes the L1 global-sensitivity bound
// of its single-sample gradient that the privacy mechanism of Theorem 1
// requires. All sensitivity bounds assume ‖x‖₁ ≤ 1 (the paper's
// normalization precondition: the dataset pipeline normalizes, and
// core.Device refuses a sample that is not).
package model

import "github.com/crowdml/crowdml/internal/linalg"

// Sample is one (feature vector, target) pair. Classification models read Y;
// the regression model reads T.
type Sample struct {
	X []float64 // feature vector, ‖X‖₁ ≤ 1 for DP guarantees to hold
	Y int       // class label in [0, C)
	T float64   // regression target
}

// Model is a learnable classifier or predictor in the empirical-risk
// framework of Eq. (2). Implementations must be stateless: all learned state
// lives in the parameter matrix so that server and devices can exchange it.
type Model interface {
	// Name identifies the model (for logs and experiment output).
	Name() string
	// Shape returns the parameter matrix shape: classes (rows) × dim (cols).
	Shape() (classes, dim int)
	// Loss returns l(h(x;w), y) for one sample, excluding regularization.
	Loss(w *linalg.Matrix, s Sample) float64
	// AddGradient accumulates the per-sample (sub)gradient ∇_w l into grad.
	// The λw regularization term is NOT included: Device Routine 2's
	// g̃ = 1/n Σ gᵢ + λw adds it once per minibatch, and this
	// implementation runs at λ = 0.
	AddGradient(w, grad *linalg.Matrix, s Sample)
	// Predict returns the predicted class index for x.
	Predict(w *linalg.Matrix, x []float64) int
	// Misclassified reports whether the model's prediction for s is wrong
	// (this feeds the n_e counter of Algorithm 1).
	Misclassified(w *linalg.Matrix, s Sample) bool
	// GradientSensitivity returns S such that two minibatches of size b
	// differing in one sample have averaged gradients with
	// ‖g̃ − g̃'‖₁ ≤ S/b (Theorem 1 proves S = 4 for logistic regression).
	GradientSensitivity() float64
}

// stackClasses is the most classes whose per-sample scores fit the
// caller's stack array; every model in the paper's experiments has fewer.
const stackClasses = 16

// scoreSlice returns c scores' worth of space: the front of buf, which
// stays on the caller's stack, or a heap slice when c does not fit.
func scoreSlice(buf *[stackClasses]float64, c int) []float64 {
	if c <= stackClasses {
		return buf[:c]
	}
	return make([]float64, c)
}

// NewParams allocates a zero parameter matrix of the model's shape.
func NewParams(m Model) *linalg.Matrix {
	c, d := m.Shape()
	return linalg.NewMatrix(c, d)
}
