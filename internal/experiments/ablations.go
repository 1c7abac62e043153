package experiments

import (
	"context"
	"fmt"

	"github.com/crowdml/crowdml/internal/attack"
	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/metrics"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/rng"
	"github.com/crowdml/crowdml/internal/scenario"
)

// The ablation studies: each isolates one design choice of the framework
// on the digit task and reports the same error-vs-iteration curves as the
// paper figures (docs/EXPERIMENTS.md lists them).

// AblationMinibatch sweeps the minibatch size b under the Fig. 5 privacy
// level — the noise/latency trade-off of Eq. (13) in isolation.
func AblationMinibatch(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	setup, err := newComparisonSetup(cfg, true)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-minibatch",
		Title:  "Minibatch size vs gradient-noise mitigation (ε⁻¹=0.1)",
		XLabel: "Iteration", YLabel: "Test error",
	}
	fig.addNote("noise scale per Eq. (10) is 4/(ε·b): doubling b halves the injected noise")
	const passes = 3
	for _, b := range []int{1, 5, 10, 20, 50} {
		base := setup.crowdBase(cfg, passes)
		base.Minibatch = b
		base.Budget = privacy.Budget{Gradient: privacy.FromInv(Fig5Inv)}
		curve, err := crowdCurve(cfg, base, fmt.Sprintf("b=%d", b))
		if err != nil {
			return nil, err
		}
		fig.Curves = append(fig.Curves, curve)
	}
	return fig, nil
}

// AblationSchedule compares the paper's c/√t schedule against a constant
// rate, the strongly-convex c/t rate, and the AdaGrad updater of Remark 3.
func AblationSchedule(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	setup, err := newComparisonSetup(cfg, true)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-schedule",
		Title:  "Learning-rate schedules and adaptive updaters (Remark 3)",
		XLabel: "Iteration", YLabel: "Test error",
	}
	const passes = 2
	variants := []struct {
		name string
		mk   func() optimizer.Updater
	}{
		{name: "c/sqrt(t)", mk: sgd},
		{name: "constant", mk: func() optimizer.Updater {
			return &optimizer.SGD{Schedule: optimizer.Constant{C: 5}}
		}},
		{name: "c/t", mk: func() optimizer.Updater {
			return &optimizer.SGD{Schedule: optimizer.InvT{C: 200}}
		}},
		{name: "adagrad", mk: func() optimizer.Updater {
			return &optimizer.AdaGrad{Eta: 0.3}
		}},
		{name: "momentum", mk: func() optimizer.Updater {
			return &optimizer.Momentum{Schedule: optimizer.InvSqrt{C: DefaultRate}, Beta: 0.9}
		}},
	}
	for _, v := range variants {
		base := setup.crowdBase(cfg, passes)
		base.NewUpdater = v.mk
		curve, err := crowdCurve(cfg, base, v.name)
		if err != nil {
			return nil, err
		}
		fig.Curves = append(fig.Curves, curve)
	}
	return fig, nil
}

// AblationProjection toggles the Π_W ball projection of Eq. (3).
func AblationProjection(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	setup, err := newComparisonSetup(cfg, true)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-projection",
		Title:  "Projection radius R of Π_W (Eq. 3)",
		XLabel: "Iteration", YLabel: "Test error",
	}
	const passes = 2
	for _, radius := range []float64{0, 2, 10, 50} {
		base := setup.crowdBase(cfg, passes)
		base.NewUpdater = func() optimizer.Updater {
			return &optimizer.SGD{Schedule: optimizer.InvSqrt{C: DefaultRate}, Radius: radius}
		}
		name := fmt.Sprintf("R=%g", radius)
		if radius == 0 {
			name = "no projection"
		}
		curve, err := crowdCurve(cfg, base, name)
		if err != nil {
			return nil, err
		}
		fig.Curves = append(fig.Curves, curve)
	}
	return fig, nil
}

// DropStale returns a scenario.Crowd.Intercept that declines a checkin
// whose staleness — server updates between its checkout and its arrival —
// exceeds threshold; the engine counts the decline as a rejected checkin.
// Exact because the in-process engine is single-threaded: nothing moves
// srv.Iteration() between this check and the apply.
func DropStale(threshold int) func(*core.Server, core.Transport) core.Transport {
	return func(srv *core.Server, next core.Transport) core.Transport {
		return dropStale{Transport: next, srv: srv, threshold: threshold}
	}
}

type dropStale struct {
	core.Transport
	srv       *core.Server
	threshold int
}

func (d dropStale) Checkin(ctx context.Context, deviceID, token string, req *core.CheckinRequest) error {
	if stale := d.srv.Iteration() - req.Version; stale > d.threshold {
		return fmt.Errorf("experiments: dropped checkin %d updates stale", stale)
	}
	return d.Transport.Checkin(ctx, deviceID, token, req)
}

// AblationStale compares applying stale gradients (the paper's behaviour)
// against dropping them at the server under heavy delay.
func AblationStale(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	setup, err := newComparisonSetup(cfg, true)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-stale",
		Title:  "Apply vs drop stale gradients under 100Δ delays",
		XLabel: "Iteration", YLabel: "Test error",
	}
	const passes = 3
	for _, drop := range []int{0, 10, 100} {
		base := setup.crowdBase(cfg, passes)
		base.Straggler = scenario.StragglerSpec{Fraction: 1, Tau: 100}
		name := "apply all"
		if drop > 0 {
			base.Intercept = DropStale(drop)
			name = fmt.Sprintf("drop staleness>%d", drop)
		}
		curve, err := crowdCurve(cfg, base, name)
		if err != nil {
			return nil, err
		}
		fig.Curves = append(fig.Curves, curve)
	}
	return fig, nil
}

// AblationGaussian compares the Laplace mechanism of Eq. (10) with the
// (ε, δ) Gaussian variant of footnote 1 at matched ε.
func AblationGaussian(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	setup, err := newComparisonSetup(cfg, true)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-gaussian",
		Title:  "Laplace (ε) vs Gaussian (ε, δ=1e-5) gradient mechanisms",
		XLabel: "Iteration", YLabel: "Test error",
	}
	fig.addNote("both at ε=10, b=20; Gaussian noise derived from the L2 sensitivity bound")
	const passes = 3
	lap := setup.crowdBase(cfg, passes)
	lap.Minibatch = 20
	lap.Budget = privacy.Budget{Gradient: privacy.FromInv(Fig5Inv)}
	lapCurve, err := crowdCurve(cfg, lap, "laplace")
	if err != nil {
		return nil, err
	}
	gau := setup.crowdBase(cfg, passes)
	gau.Minibatch = 20
	sens := setup.m.GradientSensitivity()
	gau.Mechanism = func(g *linalg.Matrix, n int, r *rng.RNG) {
		privacy.PerturbGradientGaussian(g, n, sens, privacy.FromInv(Fig5Inv), 1e-5, r)
	}
	gauCurve, err := crowdCurve(cfg, gau, "gaussian")
	if err != nil {
		return nil, err
	}
	fig.Curves = append(fig.Curves, lapCurve, gauCurve)
	return fig, nil
}

// Ablations maps ablation IDs to their runners (kept separate from All so
// `crowdml-bench -fig all` remains exactly the paper's figures).
var Ablations = map[string]func(Config) (*Figure, error){
	"ablation-minibatch":   AblationMinibatch,
	"ablation-schedule":    AblationSchedule,
	"ablation-projection":  AblationProjection,
	"ablation-stale":       AblationStale,
	"ablation-gaussian":    AblationGaussian,
	"ablation-poisoning":   AblationPoisoning,
	"ablation-distinguish": AblationDistinguish,
}

// AblationPoisoning quantifies Remark 3 + server-side hardening: the same
// poisoned crowd (10% malignant devices sending huge gradients) under plain
// SGD, AdaGrad, and the sensitivity-aware clip wrapper.
func AblationPoisoning(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	setup, err := newComparisonSetup(cfg, true)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-poisoning",
		Title:  "Malignant devices (10%, huge gradients): updater robustness",
		XLabel: "trial", YLabel: "Final test error",
	}
	fig.addNote("honest averaged gradients have ‖g̃‖₁ ≤ 2, so clip(4) never touches them")
	variants := []struct {
		name string
		mk   func() optimizer.Updater
	}{
		{name: "sgd", mk: sgd},
		{name: "adagrad", mk: func() optimizer.Updater {
			return &optimizer.AdaGrad{Eta: 0.5}
		}},
		{name: "sgd+clip", mk: func() optimizer.Updater {
			return &optimizer.Clip{Inner: sgd(), MaxNorm1: 4}
		}},
	}
	for _, v := range variants {
		series := metrics.Series{Name: v.name}
		for trial := 0; trial < cfg.Trials; trial++ {
			c := setup.crowdBase(cfg, 2)
			c.NewUpdater = v.mk
			c.Byzantine = scenario.ByzantineSpec{
				Fraction: 0.1, Strategy: attack.PoisonLargeGradient.String(), Magnitude: 100,
			}
			c.Seed = cfg.Seed + uint64(trial)*1_000_003
			rep, err := scenario.RunCrowd(context.Background(), c)
			if err != nil {
				return nil, err
			}
			series.Append(float64(trial+1), rep.FinalTestError)
		}
		fig.Curves = append(fig.Curves, series)
	}
	return fig, nil
}

// AblationDistinguish is Theorem 1 measured: the optimal eavesdropper's
// accuracy at telling two neighboring minibatches (b = 20) apart from
// their sanitized gradients, against the bound e^ε/(1+e^ε) that the
// Laplace mechanism guarantees for any adversary.
func AblationDistinguish(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	_, m, err := digitTask(cfg)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-distinguish",
		Title:  "Eavesdropper distinguishing neighboring minibatches (Theorem 1)",
		XLabel: "ε", YLabel: "Adversary accuracy",
	}
	rounds := scaleInt(100_000, cfg.Scale, 1000)
	fig.addNote("likelihood-ratio adversary, b=20, %d rounds per ε; bound is e^ε/(1+e^ε)", rounds)
	adversary, bound := metrics.Series{Name: "adversary"}, metrics.Series{Name: "bound"}
	for _, eps := range []privacy.Eps{1, 2, 10} {
		res, err := attack.RunDistinguish(attack.DistinguishConfig{
			Model: m, Eps: eps, Batch: 20, Rounds: rounds, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		adversary.Append(float64(eps), res.Accuracy)
		bound.Append(float64(eps), res.Bound)
	}
	fig.Curves = append(fig.Curves, adversary, bound)
	return fig, nil
}
