// Package privacy implements Crowd-ML's differential-privacy mechanisms
// (Section III-C and Appendix C of the paper):
//
//   - Eq. (10): Laplace perturbation of minibatch-averaged gradients, the
//     local mechanism giving ε_g-DP per Theorem 1;
//   - Eqs. (11)–(12): discrete-Laplace perturbation of the misclassification
//     count n_e and the label counts n^k_y, giving ε_e- and ε_yk-DP per
//     Theorem 2;
//   - Eqs. (15)–(16): the centralized baseline's feature Laplace perturbation
//     and exponential-mechanism label flipping (Theorem 3), implemented so
//     that the comparison experiments of Figs. 5/8 can be reproduced;
//   - budget accounting ε = ε_g + ε_e + C·ε_yk (Appendix B, Remark 1).
//
// Privacy levels follow the paper's plotting convention: they are specified
// as ε (larger = less private), and a zero Eps means "privacy disabled"
// (the ε → ∞ limit), matching the figures' "ε⁻¹ = 0" annotation.
package privacy

import (
	"math"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/rng"
)

// Eps is a differential-privacy level ε. The zero value disables the
// mechanism (no noise), corresponding to ε⁻¹ = 0 in the paper's figures.
// Negative values are invalid.
type Eps float64

// Enabled reports whether the mechanism should add noise.
func (e Eps) Enabled() bool { return e > 0 }

// FromInv converts the paper's ε⁻¹ parametrization to an Eps.
// FromInv(0) disables privacy; FromInv(0.1) is ε = 10.
func FromInv(inv float64) Eps {
	if inv <= 0 {
		return 0
	}
	return Eps(1 / inv)
}

// Budget is the per-device privacy budget split across the three quantities
// a device transmits. Per Appendix B Remark 1, ε_e and ε_yk can be made very
// small (they only feed server-side progress monitoring), so the effective
// budget is dominated by Gradient.
type Budget struct {
	// Gradient is ε_g for the averaged-gradient Laplace mechanism (Eq. 10).
	Gradient Eps
	// ErrCount is ε_e for the misclassification count (Eq. 11).
	ErrCount Eps
	// LabelCount is ε_yk for each per-class label count (Eq. 12).
	LabelCount Eps
}

// Total returns the composed privacy level ε = ε_g + ε_e + C·ε_yk for a
// C-class task. Disabled components contribute zero; if any component is
// disabled the total is only meaningful for the enabled ones (a disabled
// gradient mechanism means the device offers no DP at all, and Total
// returns 0 to signal that).
func (b Budget) Total(classes int) Eps {
	if !b.Gradient.Enabled() {
		return 0
	}
	total := float64(b.Gradient)
	if b.ErrCount.Enabled() {
		total += float64(b.ErrCount)
	}
	if b.LabelCount.Enabled() {
		total += float64(classes) * float64(b.LabelCount)
	}
	return Eps(total)
}

// PerturbGradient applies the Eq. (10) mechanism in place: it adds i.i.d.
// Laplace noise of scale sensitivity/(b·ε) to every element of the averaged
// gradient g̃, where sensitivity is the model's single-sample bound
// (4 for logistic regression) and b is the minibatch size. No-op when eps
// is disabled.
func PerturbGradient(g *linalg.Matrix, batch int, sensitivity float64, eps Eps, r *rng.RNG) {
	if !eps.Enabled() {
		return
	}
	if batch < 1 {
		batch = 1
	}
	scale := sensitivity / (float64(batch) * float64(eps))
	data := g.Data()
	for i := range data {
		data[i] += r.Laplace(scale)
	}
}

// GradientNoiseVariance returns E‖z‖² for the Eq. (10) mechanism over a
// D-dimensional-per-class, C-class gradient: 2·D·C·(S/(bε))², which for the
// logistic-regression S=4 reduces to the paper's 32·D/(bε)² per class
// (Eq. 13). Returns 0 when disabled.
func GradientNoiseVariance(dims int, batch int, sensitivity float64, eps Eps) float64 {
	if !eps.Enabled() {
		return 0
	}
	scale := sensitivity / (float64(batch) * float64(eps))
	return 2 * float64(dims) * scale * scale
}

// SanitizeCount applies the discrete-Laplace mechanism of Eqs. (11)–(12):
// it returns n + z with P(z) ∝ exp(−(ε/2)|z|), z ∈ ℤ. The result may be
// negative (Appendix B Remark 2 — harmless for the server's running
// estimates). No-op when eps is disabled.
func SanitizeCount(n int, eps Eps, r *rng.RNG) int {
	if !eps.Enabled() {
		return n
	}
	return n + r.DiscreteLaplace(2/float64(eps))
}

// SanitizeCounts applies SanitizeCount to every element of counts,
// returning a fresh slice.
func SanitizeCounts(counts []int, eps Eps, r *rng.RNG) []int {
	out := make([]int, len(counts))
	for i, n := range counts {
		out[i] = SanitizeCount(n, eps, r)
	}
	return out
}

// CountNoiseVariance returns the variance 2p/(1−p)² with p = e^{−ε/2} of
// the discrete Laplace noise (Appendix B Remark 2), 0 when disabled.
func CountNoiseVariance(eps Eps) float64 {
	if !eps.Enabled() {
		return 0
	}
	p := math.Exp(-float64(eps) / 2)
	return 2 * p / ((1 - p) * (1 - p))
}

// PerturbFeatures applies the centralized baseline's Eq. (15) mechanism in
// place: x_i += Laplace(2/ε) for every feature element. The feature
// transmission has sensitivity 2 under ‖x‖₁ ≤ 1 (Theorem 3). No-op when
// disabled.
func PerturbFeatures(x []float64, eps Eps, r *rng.RNG) {
	if !eps.Enabled() {
		return
	}
	scale := 2 / float64(eps)
	for i := range x {
		x[i] += r.Laplace(scale)
	}
}

// PerturbLabel applies the centralized baseline's Eq. (16) exponential
// mechanism: it samples ŷ with P(ŷ|y) ∝ exp((ε/2)·I[ŷ=y]) over the C
// classes. Returns y unchanged when disabled.
func PerturbLabel(y, classes int, eps Eps, r *rng.RNG) int {
	if !eps.Enabled() {
		return y
	}
	// Weight e^{ε/2} on the true label, 1 elsewhere. Sample directly:
	// with probability w/(w + C − 1) keep y, else uniform among others.
	w := math.Exp(float64(eps) / 2)
	keep := w / (w + float64(classes-1))
	if r.Float64() < keep {
		return y
	}
	other := r.Intn(classes - 1)
	if other >= y {
		other++
	}
	return other
}

// LabelKeepProbability returns P(ŷ = y) under Eq. (16), useful for the
// analysis tests and for documenting how destructive the centralized
// mechanism is at a given ε.
func LabelKeepProbability(classes int, eps Eps) float64 {
	if !eps.Enabled() {
		return 1
	}
	w := math.Exp(float64(eps) / 2)
	return w / (w + float64(classes-1))
}
