// Package baseline implements the centralized comparison systems of the
// paper's evaluation: centralized batch learning and centralized SGD, both
// optionally under the Appendix C input-perturbation privacy mechanism
// (feature Laplace noise + exponential-mechanism label flipping). These are
// the "Central (batch)" and "Central (SGD, b=…)" curves of Figs. 4–9.
package baseline

import (
	"fmt"

	"github.com/crowdml/crowdml/internal/dataset"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/metrics"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/rng"
)

// InputPerturbation is the centralized approach's DP budget: the overall ε
// is split as ε = ε_x + ε_y between features (Eq. 15) and labels (Eq. 16);
// the paper uses ε_x = ε_y = ε/2 in the experiments.
type InputPerturbation struct {
	// Features is ε_x for the feature Laplace mechanism.
	Features privacy.Eps
	// Labels is ε_y for the exponential-mechanism label perturbation.
	Labels privacy.Eps
}

// SplitEvenly returns the paper's ε_x = ε_y = ε/2 split. A disabled total
// yields a disabled perturbation.
func SplitEvenly(total privacy.Eps) InputPerturbation {
	if !total.Enabled() {
		return InputPerturbation{}
	}
	half := privacy.Eps(float64(total) / 2)
	return InputPerturbation{Features: half, Labels: half}
}

// PerturbDataset applies the Appendix C mechanisms to every training
// sample, returning a fresh slice. Test data is never perturbed (the
// paper's footnote 8). Classes is C for the label mechanism.
func PerturbDataset(samples []model.Sample, classes int, p InputPerturbation, r *rng.RNG) []model.Sample {
	out := make([]model.Sample, len(samples))
	for i, s := range samples {
		x := linalg.Copy(s.X)
		privacy.PerturbFeatures(x, p.Features, r)
		out[i] = model.Sample{
			X: x,
			Y: privacy.PerturbLabel(s.Y, classes, p.Labels, r),
			T: s.T,
		}
	}
	return out
}

// The centralized batch learner runs batchEpochs epochs of full-batch
// gradient descent at the fixed step size batchRate, tuned for
// L1-normalized features.
const (
	batchEpochs = 150
	batchRate   = 40
)

// BatchConfig configures the centralized batch learner.
type BatchConfig struct {
	// Model is the classifier; required.
	Model model.Model
	// Train and Test are the sample sets.
	Train, Test []model.Sample
	// Perturbation is the optional Appendix C input DP mechanism applied
	// to the training set before learning.
	Perturbation InputPerturbation
	// Seed drives the perturbation noise.
	Seed uint64
}

// RunBatch trains the centralized batch baseline and returns its test
// error — the flat reference line in the figures.
func RunBatch(cfg BatchConfig) (float64, error) {
	if cfg.Model == nil {
		return 0, fmt.Errorf("baseline: Model is required")
	}
	if len(cfg.Train) == 0 {
		return 0, fmt.Errorf("baseline: empty training set")
	}
	r := rng.New(cfg.Seed)
	classes, _ := cfg.Model.Shape()
	train := PerturbDataset(cfg.Train, classes, cfg.Perturbation, r)

	w := model.NewParams(cfg.Model)
	g := model.NewParams(cfg.Model)
	inv := 1 / float64(len(train))
	for e := 0; e < batchEpochs; e++ {
		g.Zero()
		for _, s := range train {
			cfg.Model.AddGradient(w, g, s)
		}
		g.Scale(inv)
		w.AddScaled(-batchRate, g)
	}
	return metrics.TestError(cfg.Model, w, cfg.Test), nil
}

// SGDConfig configures the centralized streaming baseline: devices send
// (perturbed) raw samples to the server, which runs minibatch SGD.
type SGDConfig struct {
	// Model is the classifier; required.
	Model model.Model
	// Train and Test are the sample sets.
	Train, Test []model.Sample
	// Perturbation is the Appendix C input DP mechanism.
	Perturbation InputPerturbation
	// Minibatch is b (default 1).
	Minibatch int
	// Schedule is η(t); required.
	Schedule optimizer.Schedule
	// Passes over the training data (default 1).
	Passes int
	// EvalEvery measures test error every this many samples
	// (default total/50).
	EvalEvery int
	// EvalSubset caps test samples per evaluation (0 = all).
	EvalSubset int
	// Seed drives shuffling and perturbation noise.
	Seed uint64
}

// RunSGD trains the centralized SGD baseline and returns its test-error
// curve vs samples used.
func RunSGD(cfg SGDConfig) (metrics.Series, error) {
	if cfg.Model == nil || cfg.Schedule == nil {
		return metrics.Series{}, fmt.Errorf("baseline: Model and Schedule are required")
	}
	if len(cfg.Train) == 0 {
		return metrics.Series{}, fmt.Errorf("baseline: empty training set")
	}
	if cfg.Minibatch < 1 {
		cfg.Minibatch = 1
	}
	if cfg.Passes < 1 {
		cfg.Passes = 1
	}
	total := cfg.Passes * len(cfg.Train)
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = total / 50
		if cfg.EvalEvery == 0 {
			cfg.EvalEvery = 1
		}
	}
	r := rng.New(cfg.Seed)
	classes, _ := cfg.Model.Shape()
	train := PerturbDataset(cfg.Train, classes, cfg.Perturbation, r)
	evalSet := cfg.Test
	if cfg.EvalSubset > 0 && cfg.EvalSubset < len(evalSet) {
		evalSet = dataset.Shuffled(evalSet, r)[:cfg.EvalSubset]
	}

	w := model.NewParams(cfg.Model)
	updater := &optimizer.SGD{Schedule: cfg.Schedule}
	curve := metrics.Series{Name: fmt.Sprintf("central-sgd-b%d", cfg.Minibatch)}
	batch := make([]model.Sample, 0, cfg.Minibatch)
	t := 0
	for n := 1; n <= total; n++ {
		batch = append(batch, train[(n-1)%len(train)])
		if len(batch) >= cfg.Minibatch {
			g := optimizer.AverageGradient(cfg.Model, w, batch, 0)
			t++
			updater.Update(w, g, t)
			batch = batch[:0]
		}
		if n%cfg.EvalEvery == 0 || n == total {
			curve.Append(float64(n), metrics.TestError(cfg.Model, w, evalSet))
		}
	}
	return curve, nil
}
