// Package simnet models communication delay for the crowd engine
// (internal/scenario), as in the simulated experiments of Section V-C.
// Delays are expressed in the paper's Δ units: the amount of global
// "sample time" that passes during one communication leg, i.e. the
// number of samples generated by all devices during the delay. Each of
// the three legs (request τ_req, check-out τ_co, check-in τ_ci) is drawn
// independently and uniformly from [0, τ], exactly as the paper specifies
// ("the actual delays are sampled randomly and uniformly from [0, τ]").
package simnet

import "github.com/crowdml/crowdml/internal/rng"

// Uniform draws delays uniformly from [0, Max] — the paper's model with
// Max = τ in Δ units (e.g. 1000Δ in Fig. 6 means up to 1000 samples are
// generated crowd-wide during each leg).
type Uniform struct {
	// Max is the maximum delay τ in Δ units. Negative is treated as 0.
	Max float64
}

// Draw samples one communication-leg delay ≥ 0 in global-sample units.
func (u Uniform) Draw(r *rng.RNG) float64 {
	if u.Max <= 0 {
		return 0
	}
	return r.Uniform(0, u.Max)
}
