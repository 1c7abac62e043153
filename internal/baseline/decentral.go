package baseline

import (
	"fmt"

	"github.com/crowdml/crowdml/internal/dataset"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/metrics"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/rng"
)

// DecentralConfig configures the decentralized baseline of Section IV:
// every device learns purely locally (SoundSense-style), never sharing
// anything. Privacy is maximal but each device sees only ~1/M of the data,
// which is what drives the high error floor of Figs. 4/7.
type DecentralConfig struct {
	// Model is the per-device classifier; required.
	Model model.Model
	// Train and Test are the sample sets.
	Train, Test []model.Sample
	// Devices is M. Must be ≥ 1.
	Devices int
	// Lambda is the regularization weight.
	Lambda float64
	// Schedule is η(t) for each device's local SGD; required.
	Schedule optimizer.Schedule
	// Radius is the projection radius (non-positive disables).
	Radius float64
	// Passes over the training data. Defaults to 1.
	Passes int
	// EvalEvery measures error every this many global samples
	// (default total/50).
	EvalEvery int
	// EvalDevices caps how many devices' models are averaged per
	// evaluation (0 = all; sub-sampling keeps M=1000 sweeps fast).
	EvalDevices int
	// EvalSubset caps test samples per evaluation (0 = all).
	EvalSubset int
	// Seed drives all randomness.
	Seed uint64
}

// RunDecentral simulates decentralized per-device learning and returns the
// device-averaged test-error curve vs global samples used.
func RunDecentral(cfg DecentralConfig) (metrics.Series, error) {
	if cfg.Model == nil || cfg.Schedule == nil {
		return metrics.Series{}, fmt.Errorf("baseline: Model and Schedule are required")
	}
	if cfg.Devices < 1 {
		return metrics.Series{}, fmt.Errorf("baseline: Devices must be ≥ 1")
	}
	if len(cfg.Train) == 0 {
		return metrics.Series{}, fmt.Errorf("baseline: empty training set")
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
	// Split streams per consumer, same discipline as the crowd engine: eval
	// sub-sampling knobs must not perturb the arrival schedule.
	root := rng.New(cfg.Seed)
	assignRNG := root.Split()
	evalRNG := root.Split()
	arrivalRNG := root.Split()

	shards := dataset.Assign(cfg.Train, cfg.Devices, assignRNG)
	evalSet := cfg.Test
	if cfg.EvalSubset > 0 && cfg.EvalSubset < len(evalSet) {
		evalSet = dataset.Shuffled(evalSet, evalRNG)[:cfg.EvalSubset]
	}
	evalDevs := cfg.Devices
	if cfg.EvalDevices > 0 && cfg.EvalDevices < evalDevs {
		evalDevs = cfg.EvalDevices
	}
	evalIdx := evalRNG.Perm(cfg.Devices)[:evalDevs]

	type deviceState struct {
		w   *linalg.Matrix
		pos int
		t   int
	}
	devs := make([]deviceState, cfg.Devices)
	for i := range devs {
		devs[i].w = model.NewParams(cfg.Model)
	}
	updater := &optimizer.SGD{Schedule: cfg.Schedule, Radius: cfg.Radius}

	curve := metrics.Series{Name: "decentralized"}
	for n := 1; n <= total; n++ {
		m := arrivalRNG.Intn(cfg.Devices)
		d := &devs[m]
		shard := shards[m]
		if len(shard) == 0 {
			continue
		}
		s := shard[d.pos%len(shard)]
		d.pos++
		d.t++
		g := optimizer.AverageGradient(cfg.Model, d.w, []model.Sample{s}, cfg.Lambda)
		updater.Update(d.w, g, d.t)
		if n%cfg.EvalEvery == 0 || n == total {
			var sum float64
			for _, di := range evalIdx {
				sum += metrics.TestError(cfg.Model, devs[di].w, evalSet)
			}
			curve.Append(float64(n), sum/float64(len(evalIdx)))
		}
	}
	return curve, nil
}
