// Package linalg provides the small dense linear-algebra kernel used by the
// Crowd-ML framework: vectors, row-major matrices, norms, and the softmax /
// log-sum-exp primitives required by multiclass logistic regression.
//
// Everything is implemented on plain []float64 so the hot path (per-sample
// gradient computation on a device) allocates nothing.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when two operands have incompatible sizes.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Dot returns the inner product of a and b.
// It panics if the lengths differ; dimension agreement is a programming
// invariant in this codebase, established at model construction time.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes dst += alpha * x elementwise.
func Axpy(alpha float64, x, dst []float64) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d != %d", len(x), len(dst)))
	}
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Sub computes dst = a - b elementwise.
func Sub(a, b, dst []float64) {
	if len(a) != len(b) || len(a) != len(dst) {
		panic("linalg: Sub length mismatch")
	}
	for i := range a {
		dst[i] = a[i] - b[i]
	}
}

// Copy copies src into a freshly allocated slice.
func Copy(src []float64) []float64 {
	dst := make([]float64, len(src))
	copy(dst, src)
	return dst
}

// Zero sets every element of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Norm1 returns the L1 norm of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Norm2Sq(x))
}

// Norm2Sq returns the squared Euclidean norm of x.
func Norm2Sq(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// ArgMax returns the index of the largest element of x.
// Ties resolve to the smallest index. It returns -1 for an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// NormalizeL1 scales x in place so that its L1 norm is 1.
// A zero vector is left unchanged. The paper requires ‖x‖₁ ≤ 1 for the
// sensitivity bound of Theorem 1; this enforces equality for non-zero inputs.
func NormalizeL1(x []float64) {
	n := Norm1(x)
	if n == 0 {
		return
	}
	Scale(1/n, x)
}

// ProjectBall scales w in place onto the Euclidean ball of radius r:
// Π_W(w) = min(1, r/‖w‖₂)·w, the projection used in the SGD update Eq. (3).
// Radius r must be positive; r ≤ 0 disables projection (W = R^d).
func ProjectBall(w []float64, r float64) {
	if r <= 0 {
		return
	}
	n := Norm2(w)
	if n > r {
		Scale(r/n, w)
	}
}

// Equal reports whether a and b agree elementwise within tol.
func Equal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
