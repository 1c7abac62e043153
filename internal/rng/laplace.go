package rng

import "math"

// Laplace returns a sample from the zero-mean Laplace distribution with
// scale parameter scale > 0, i.e. density p(z) ∝ exp(−|z|/scale).
//
// This is the noise of the paper's Eq. (10): adding Laplace noise with
// scale = S(f)/ε to a function with L1-sensitivity S(f) yields
// ε-differential privacy (Dwork et al. 2006, Proposition 1).
func (r *RNG) Laplace(scale float64) float64 {
	if scale <= 0 {
		panic("rng: Laplace with non-positive scale")
	}
	// Inverse CDF: u uniform in (-1/2, 1/2], z = -scale*sign(u)*ln(1-2|u|).
	u := r.Float64() - 0.5
	if u == -0.5 {
		u = 0.5 // avoid log(0) on the open endpoint
	}
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}

// DiscreteLaplace returns an integer sample from the discrete Laplace
// distribution P(z) ∝ exp(−|z|/scale) for z ∈ ℤ (Inusah & Kozubowski 2006),
// the "discrete Laplace noise" of the paper's Eqs. (11)–(12) used to
// sanitize the misclassification count n_e and the label counts n^k_y.
//
// Sampling uses the two-sided-geometric representation: z = G1 − G2 where
// G1, G2 are i.i.d. Geometric on {0,1,2,…} with success probability 1 − p,
// p = exp(−1/scale).
func (r *RNG) DiscreteLaplace(scale float64) int {
	if scale <= 0 {
		panic("rng: DiscreteLaplace with non-positive scale")
	}
	p := math.Exp(-1 / scale)
	return r.geometric(p) - r.geometric(p)
}

// geometric samples G ∈ {0,1,2,…} with P(G = k) = (1−p)·p^k via inverse CDF.
func (r *RNG) geometric(p float64) int {
	if p <= 0 {
		return 0
	}
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	// P(G >= k) = p^k, so G = floor(ln(u)/ln(p)).
	return int(math.Floor(math.Log(u) / math.Log(p)))
}
