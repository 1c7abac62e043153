package experiments

import (
	"context"
	"fmt"

	"github.com/crowdml/crowdml/internal/activity"
	"github.com/crowdml/crowdml/internal/baseline"
	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/metrics"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/scenario"
)

// Fig3Rates is the learning-rate sweep of Fig. 3. The paper sweeps
// c ∈ {1e-6, 1e-4, 1e-2, 1} over raw accelerometer-FFT magnitudes; our
// features are L1-normalized (per the privacy precondition), which shifts
// the useful c range upward by the feature norm — the sweep spans the same
// four decades.
var Fig3Rates = []float64{0.1, 1, 10, 100}

// Fig3 reproduces the activity-recognition experiment in a "real
// environment": 7 devices running the full Algorithm 1/2 stack over the
// loopback transport, 3-class logistic regression, b = 1, λ = 0, no
// privacy, time-averaged error over the first 300 samples for each
// learning rate.
func Fig3(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	const (
		devices      = 7
		totalSamples = 300
	)
	fig := &Figure{
		ID:     "fig3",
		Title:  "Time-averaged error across all devices for activity recognition",
		XLabel: "Iteration", YLabel: "Prediction error",
	}
	fig.addNote("%d devices, 3-class logistic regression, b=1, λ=0, ε⁻¹=0", devices)

	for _, c := range Fig3Rates {
		trials := make([]metrics.Series, cfg.Trials)
		for trial := 0; trial < cfg.Trials; trial++ {
			curve, err := runFig3Trial(c, devices, totalSamples,
				cfg.Seed+uint64(trial)*7919)
			if err != nil {
				return nil, err
			}
			trials[trial] = curve
		}
		avg, err := metrics.AverageSeries(trials)
		if err != nil {
			return nil, err
		}
		avg.Name = fmt.Sprintf("c=%g", c)
		fig.Curves = append(fig.Curves, avg)
	}
	return fig, nil
}

// runFig3Trial runs one pass of the real-framework activity experiment and
// returns the running server-side error estimate Êrr(t) of Eq. (14) — the
// same time-averaged misclassification error Fig. 3 plots.
func runFig3Trial(rate float64, devices, totalSamples int, seed uint64) (metrics.Series, error) {
	m := model.NewLogisticRegression(activity.NumClasses, activity.FeatureDim)
	srv, err := core.NewServer(core.ServerConfig{
		Model:   m,
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: rate}},
	})
	if err != nil {
		return metrics.Series{}, err
	}
	gens := make([]*activity.Generator, devices)
	devs := make([]*core.Device, devices)
	ctx := context.Background()
	for i := range devs {
		token, err := srv.RegisterDevice(ctx, fmt.Sprintf("phone-%d", i))
		if err != nil {
			return metrics.Series{}, err
		}
		gens[i] = activity.NewGenerator(seed + uint64(i)*104729)
		devs[i], err = core.NewDevice(core.DeviceConfig{
			ID:        fmt.Sprintf("phone-%d", i),
			Token:     token,
			Model:     m,
			Transport: srv,
			Minibatch: 1,
			Seed:      seed + uint64(i)*15485863,
		})
		if err != nil {
			return metrics.Series{}, err
		}
	}
	curve := metrics.Series{Name: fmt.Sprintf("c=%g", rate)}
	for n := 1; n <= totalSamples; n++ {
		dev := (n - 1) % devices // devices sample at equal rates
		s, err := gens[dev].Next()
		if err != nil {
			return metrics.Series{}, err
		}
		if err := devs[dev].AddSample(ctx, s); err != nil {
			return metrics.Series{}, err
		}
		if est, ok := srv.ErrEstimate(); ok {
			curve.Append(float64(n), est)
		}
	}
	return curve, nil
}

// comparisonNoPrivacy implements Figs. 4 and 7: centralized batch vs
// Crowd-ML vs decentralized, no privacy, no delay, one pass.
func comparisonNoPrivacy(cfg Config, digits bool, id, title string) (*Figure, error) {
	cfg = cfg.normalized()
	setup, err := newComparisonSetup(cfg, digits)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "Iterations", YLabel: "Test error",
	}
	fig.addNote("M=%d devices, %d train / %d test, ε⁻¹=0, τ=0, b=1",
		setup.devices, len(setup.ds.Train), len(setup.ds.Test))

	crowd, err := crowdCurve(cfg, setup.crowdBase(cfg, 1), "Crowd-ML (SGD)")
	if err != nil {
		return nil, err
	}

	dec, err := decentralCurve(cfg, setup, 1)
	if err != nil {
		return nil, err
	}

	batchErr, err := baseline.RunBatch(baseline.BatchConfig{
		Model: setup.m, Train: setup.ds.Train, Test: setup.ds.Test, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	fig.Curves = append(fig.Curves,
		dec,
		crowd,
		metrics.ConstantSeries("Central (batch)", crowd.X, batchErr),
	)
	return fig, nil
}

func decentralCurve(cfg Config, setup *comparisonSetup, passes int) (metrics.Series, error) {
	total := passes * len(setup.ds.Train)
	trials := make([]metrics.Series, cfg.Trials)
	for i := 0; i < cfg.Trials; i++ {
		c, err := baseline.RunDecentral(baseline.DecentralConfig{
			Model: setup.m, Train: setup.ds.Train, Test: setup.ds.Test,
			Devices:     setup.devices,
			Schedule:    optimizer.InvSqrt{C: DefaultRate},
			Passes:      passes,
			EvalEvery:   total / cfg.EvalPoints,
			EvalDevices: 20,
			EvalSubset:  500,
			Seed:        cfg.Seed + uint64(i)*1_000_003,
		})
		if err != nil {
			return metrics.Series{}, err
		}
		trials[i] = c
	}
	avg, err := metrics.AverageSeries(trials)
	if err != nil {
		return metrics.Series{}, err
	}
	avg.Name = "Decentral (SGD)"
	return avg, nil
}

// Fig4 reproduces the no-privacy, no-delay comparison on the digit task.
func Fig4(cfg Config) (*Figure, error) {
	return comparisonNoPrivacy(cfg, true, "fig4",
		"Centralized vs crowd vs decentralized, digit recognition")
}

// Fig7 is Fig. 4 on the object-recognition task (Appendix D).
func Fig7(cfg Config) (*Figure, error) {
	return comparisonNoPrivacy(cfg, false, "fig7",
		"Centralized vs crowd vs decentralized, object recognition")
}

// Fig5Inv is the privacy level ε⁻¹ = 0.1 (ε = 10) of Figs. 5/8.
const Fig5Inv = 0.1

// comparisonWithPrivacy implements Figs. 5 and 8: at ε⁻¹ = 0.1, centralized
// SGD with input perturbation vs Crowd-ML with gradient perturbation, for
// b ∈ {1, 10, 20}, plus the perturbed centralized batch reference.
func comparisonWithPrivacy(cfg Config, digits bool, id, title string) (*Figure, error) {
	cfg = cfg.normalized()
	setup, err := newComparisonSetup(cfg, digits)
	if err != nil {
		return nil, err
	}
	eps := privacy.FromInv(Fig5Inv)
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "Iteration", YLabel: "Test error",
	}
	fig.addNote("M=%d devices, ε⁻¹=%g, τ=0, 5 passes", setup.devices, Fig5Inv)

	const passes = 5
	total := passes * len(setup.ds.Train)
	for _, b := range []int{1, 10, 20} {
		central, err := centralSGDCurve(cfg, setup, b, eps, passes, total)
		if err != nil {
			return nil, err
		}
		fig.Curves = append(fig.Curves, central)
	}
	for _, b := range []int{1, 10, 20} {
		base := setup.crowdBase(cfg, passes)
		base.Minibatch = b
		base.Budget = privacy.Budget{Gradient: eps}
		crowd, err := crowdCurve(cfg, base, fmt.Sprintf("Crowd-ML (SGD,b=%d)", b))
		if err != nil {
			return nil, err
		}
		fig.Curves = append(fig.Curves, crowd)
	}
	batchErr, err := baseline.RunBatch(baseline.BatchConfig{
		Model: setup.m, Train: setup.ds.Train, Test: setup.ds.Test,
		Perturbation: baseline.SplitEvenly(eps), Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	fig.Curves = append(fig.Curves,
		metrics.ConstantSeries("Central (batch)", fig.Curves[0].X, batchErr))
	return fig, nil
}

func centralSGDCurve(cfg Config, setup *comparisonSetup, b int, eps privacy.Eps, passes, total int) (metrics.Series, error) {
	trials := make([]metrics.Series, cfg.Trials)
	for i := 0; i < cfg.Trials; i++ {
		c, err := baseline.RunSGD(baseline.SGDConfig{
			Model: setup.m, Train: setup.ds.Train, Test: setup.ds.Test,
			Perturbation: baseline.SplitEvenly(eps),
			Minibatch:    b,
			Schedule:     optimizer.InvSqrt{C: DefaultRate},
			Passes:       passes,
			EvalEvery:    total / cfg.EvalPoints,
			EvalSubset:   setup.eval,
			Seed:         cfg.Seed + uint64(i)*1_000_003,
		})
		if err != nil {
			return metrics.Series{}, err
		}
		trials[i] = c
	}
	avg, err := metrics.AverageSeries(trials)
	if err != nil {
		return metrics.Series{}, err
	}
	avg.Name = fmt.Sprintf("Central (SGD,b=%d)", b)
	return avg, nil
}

// Fig5 reproduces the privacy comparison on the digit task.
func Fig5(cfg Config) (*Figure, error) {
	return comparisonWithPrivacy(cfg, true, "fig5",
		"Centralized vs crowd with privacy (ε⁻¹=0.1), digit recognition")
}

// Fig8 is Fig. 5 on the object-recognition task (Appendix D).
func Fig8(cfg Config) (*Figure, error) {
	return comparisonWithPrivacy(cfg, false, "fig8",
		"Centralized vs crowd with privacy (ε⁻¹=0.1), object recognition")
}

// Fig6Delays is the delay sweep of Figs. 6/9, in Δ units.
var Fig6Delays = []float64{1, 10, 100, 1000}

// comparisonWithDelay implements Figs. 6 and 9: Crowd-ML at ε⁻¹ = 0.1 with
// b ∈ {1, 20} under maximum per-leg delays of {1, 10, 100, 1000}Δ, plus the
// perturbed centralized batch reference.
func comparisonWithDelay(cfg Config, digits bool, id, title string) (*Figure, error) {
	cfg = cfg.normalized()
	setup, err := newComparisonSetup(cfg, digits)
	if err != nil {
		return nil, err
	}
	eps := privacy.FromInv(Fig5Inv)
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "Iteration", YLabel: "Test error",
	}
	fig.addNote("M=%d devices, ε⁻¹=%g, delays uniform in [0,τ] per leg, 5 passes",
		setup.devices, Fig5Inv)

	const passes = 5
	for _, b := range []int{1, 20} {
		for _, tau := range Fig6Delays {
			base := setup.crowdBase(cfg, passes)
			base.Minibatch = b
			base.Budget = privacy.Budget{Gradient: eps}
			base.Straggler = scenario.StragglerSpec{Fraction: 1, Tau: tau}
			crowd, err := crowdCurve(cfg, base,
				fmt.Sprintf("Crowd-ML (b=%d,%gΔ)", b, tau))
			if err != nil {
				return nil, err
			}
			fig.Curves = append(fig.Curves, crowd)
		}
	}
	batchErr, err := baseline.RunBatch(baseline.BatchConfig{
		Model: setup.m, Train: setup.ds.Train, Test: setup.ds.Test,
		Perturbation: baseline.SplitEvenly(eps), Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	fig.Curves = append(fig.Curves,
		metrics.ConstantSeries("Central (batch)", fig.Curves[0].X, batchErr))
	return fig, nil
}

// Fig6 reproduces the delay study on the digit task.
func Fig6(cfg Config) (*Figure, error) {
	return comparisonWithDelay(cfg, true, "fig6",
		"Impact of delays on Crowd-ML with privacy (ε⁻¹=0.1), digit recognition")
}

// Fig9 is Fig. 6 on the object-recognition task (Appendix D).
func Fig9(cfg Config) (*Figure, error) {
	return comparisonWithDelay(cfg, false, "fig9",
		"Impact of delays on Crowd-ML with privacy (ε⁻¹=0.1), object recognition")
}

// All maps figure IDs to their runners.
var All = map[string]func(Config) (*Figure, error){
	"fig3": Fig3,
	"fig4": Fig4,
	"fig5": Fig5,
	"fig6": Fig6,
	"fig7": Fig7,
	"fig8": Fig8,
	"fig9": Fig9,
}
