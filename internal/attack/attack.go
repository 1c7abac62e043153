// Package attack implements the adversary models of the paper's
// Section III-C and empirical evaluations of the defenses:
//
//   - Eavesdropper: observes everything a device transmits (which, per the
//     paper, subsumes malignant-device, server-compromise and publication
//     attacks, since all of those observe derived data). The package
//     measures how well such an adversary can distinguish two neighboring
//     minibatches from the sanitized gradients — an empirical lower-bound
//     check against the ε guarantee of Theorem 1.
//
//   - Malignant device: a registered participant that checks in adversarial
//     gradients to poison the shared model. Remark 3 argues adaptive
//     learning rates "provide a robustness to large gradients from outlying
//     or malignant devices"; Corrupt is the adversarial gradient the crowd
//     engine's byzantine cohorts (internal/scenario) check in, which is
//     where that claim is measured: plain SGD against AdaGrad and a
//     sensitivity-aware clip under a configurable fraction of attackers.
package attack

import (
	"fmt"
	"math"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/rng"
)

// DistinguishConfig sets up the eavesdropper experiment: the adversary
// knows two candidate minibatches D and D' differing in one sample, knows
// w, observes one sanitized gradient per round, and guesses which
// minibatch produced it via the exact likelihood ratio of the Laplace
// mechanism. The DP guarantee bounds the advantage of ANY such test:
// accuracy ≤ e^ε/(1+e^ε).
type DistinguishConfig struct {
	// Model computes the gradients; required.
	Model model.Model
	// Eps is the gradient mechanism's privacy level; required (enabled).
	Eps privacy.Eps
	// Batch is the minibatch size b.
	Batch int
	// Rounds is the number of observation rounds.
	Rounds int
	// Seed drives data generation, noise and the adversary's coin flips.
	Seed uint64
}

// DistinguishResult reports the adversary's measured performance.
type DistinguishResult struct {
	// Accuracy is the fraction of rounds the adversary guessed correctly.
	Accuracy float64
	// Bound is the DP upper bound e^ε/(1+e^ε) on any adversary's accuracy.
	Bound float64
}

// RunDistinguish measures the best-possible eavesdropper's accuracy at
// telling two neighboring minibatches apart from sanitized gradients.
func RunDistinguish(cfg DistinguishConfig) (*DistinguishResult, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("attack: Model is required")
	}
	if !cfg.Eps.Enabled() {
		return nil, fmt.Errorf("attack: distinguishing test needs an enabled Eps")
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	if cfg.Rounds < 1 {
		cfg.Rounds = 1000
	}
	r := rng.New(cfg.Seed)
	classes, dim := cfg.Model.Shape()

	sample := func() model.Sample {
		x := make([]float64, dim)
		for i := range x {
			x[i] = r.Uniform(-1, 1)
		}
		linalg.NormalizeL1(x)
		return model.Sample{X: x, Y: r.Intn(classes)}
	}
	w := model.NewParams(cfg.Model)
	for i := range w.Data() {
		w.Data()[i] = r.Uniform(-1, 1)
	}

	// Two fixed neighboring minibatches.
	batchA := make([]model.Sample, cfg.Batch)
	for i := range batchA {
		batchA[i] = sample()
	}
	batchB := append([]model.Sample(nil), batchA...)
	batchB[0] = sample()

	gradA := optimizer.AverageGradient(cfg.Model, w, batchA, 0)
	gradB := optimizer.AverageGradient(cfg.Model, w, batchB, 0)
	scale := cfg.Model.GradientSensitivity() / (float64(cfg.Batch) * float64(cfg.Eps))

	correct := 0
	noisy := model.NewParams(cfg.Model)
	for round := 0; round < cfg.Rounds; round++ {
		truthIsA := r.Float64() < 0.5
		src := gradB
		if truthIsA {
			src = gradA
		}
		copy(noisy.Data(), src.Data())
		privacy.PerturbGradient(noisy, cfg.Batch, cfg.Model.GradientSensitivity(), cfg.Eps, r)

		// Exact log-likelihood ratio under the Laplace mechanism:
		// log P(obs|A) − log P(obs|B) = Σ (|obs−gB| − |obs−gA|)/scale.
		var llr float64
		obs := noisy.Data()
		ga, gb := gradA.Data(), gradB.Data()
		for i := range obs {
			llr += (math.Abs(obs[i]-gb[i]) - math.Abs(obs[i]-ga[i])) / scale
		}
		guessA := llr > 0
		if llr == 0 {
			guessA = r.Float64() < 0.5
		}
		if guessA == truthIsA {
			correct++
		}
	}
	eps := float64(cfg.Eps)
	return &DistinguishResult{
		Accuracy: float64(correct) / float64(cfg.Rounds),
		Bound:    math.Exp(eps) / (1 + math.Exp(eps)),
	}, nil
}

// PoisonStrategy selects how a malignant device constructs its checkins.
type PoisonStrategy int

const (
	// PoisonLargeGradient sends a huge constant gradient — the "large
	// gradients from outlying or malignant devices" of Remark 3.
	PoisonLargeGradient PoisonStrategy = iota + 1
	// PoisonSignFlip sends the negated honest gradient scaled up,
	// actively pushing the model away from the optimum.
	PoisonSignFlip
)

// ParseStrategy maps a strategy's wire name ("large-gradient",
// "sign-flip") to its PoisonStrategy — the inverse of String, for
// scenario files and CLI flags.
func ParseStrategy(name string) (PoisonStrategy, error) {
	switch name {
	case "large-gradient":
		return PoisonLargeGradient, nil
	case "sign-flip":
		return PoisonSignFlip, nil
	}
	return 0, fmt.Errorf("attack: unknown strategy %q", name)
}

// String returns the strategy's wire name.
func (s PoisonStrategy) String() string {
	switch s {
	case PoisonLargeGradient:
		return "large-gradient"
	case PoisonSignFlip:
		return "sign-flip"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Corrupt replaces the honest gradient g in place with the strategy's
// adversarial version. r drives PoisonLargeGradient's random coordinates;
// unknown strategies leave g untouched.
func Corrupt(g *linalg.Matrix, strategy PoisonStrategy, magnitude float64, r *rng.RNG) {
	switch strategy {
	case PoisonLargeGradient:
		data := g.Data()
		for i := range data {
			data[i] = magnitude * (r.Float64() - 0.5)
		}
	case PoisonSignFlip:
		g.Scale(-magnitude)
	}
}
