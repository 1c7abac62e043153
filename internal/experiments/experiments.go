// Package experiments regenerates every figure of the paper's evaluation
// (Section V and Appendix D). Each FigN function reproduces the
// corresponding figure's curves; Render prints them as an aligned text
// table (the repository's substitute for Matplotlib plots).
//
// All experiments accept a Scale factor so the full paper-scale runs
// (M = 1000 devices, 60000/50000 training samples, 10 trials) can be shrunk
// proportionally for quick runs, tests, and benchmarks. Shapes — who wins,
// by roughly what factor, where the crossovers fall — are preserved across
// scales; docs/EXPERIMENTS.md records paper-vs-measured values.
//
// Every crowd curve runs on internal/scenario's engine over its in-process
// topology: the figures exercise the same core.Server — batching,
// registry, staleness accounting, Eq. (14) composition — as production.
package experiments

import (
	"context"
	"fmt"

	"github.com/crowdml/crowdml/internal/dataset"
	"github.com/crowdml/crowdml/internal/metrics"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/scenario"
)

// DefaultRate is the tuned c in η(t) = c/√t for the L1-normalized synthetic
// datasets (the paper selects c per task from averaged trials; this value
// was calibrated the same way — see docs/EXPERIMENTS.md).
const DefaultRate = 50.0

// sgd is the paper's server update rule at the tuned rate.
func sgd() optimizer.Updater {
	return &optimizer.SGD{Schedule: optimizer.InvSqrt{C: DefaultRate}}
}

// Config controls the size and statistical strength of an experiment run.
type Config struct {
	// Scale shrinks the paper-scale setup proportionally: device count,
	// training-set and test-set sizes all multiply by Scale. 1.0 is the
	// paper's size; values in (0, 1) give faster approximate runs.
	// Defaults to 1.0.
	Scale float64
	// Trials is the number of randomized trials averaged per curve
	// (paper: 10). Defaults to 1.
	Trials int
	// Seed is the base random seed.
	Seed uint64
	// EvalPoints is the number of test-error measurements per curve.
	// Defaults to 50.
	EvalPoints int
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Trials < 1 {
		c.Trials = 1
	}
	if c.EvalPoints < 1 {
		c.EvalPoints = 50
	}
	return c
}

// scaleInt scales n by the factor with a floor.
func scaleInt(n int, scale float64, minimum int) int {
	v := int(float64(n) * scale)
	if v < minimum {
		return minimum
	}
	return v
}

// Figure is the rendered result of one experiment: a set of named curves
// over a shared x axis meaning "iteration (= number of samples used)".
type Figure struct {
	// ID is the paper's figure number, e.g. "fig4".
	ID string
	// Title describes the experiment.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Curves are the plotted series.
	Curves []metrics.Series
	// Notes records setup details worth keeping next to the numbers.
	Notes []string
}

// digitTask builds the MNIST-like task at the configured scale.
func digitTask(cfg Config) (*dataset.Dataset, model.Model, error) {
	ds, err := dataset.MNISTLike(
		scaleInt(60000, cfg.Scale, 1000),
		scaleInt(10000, cfg.Scale, 500),
		cfg.Seed,
	)
	if err != nil {
		return nil, nil, err
	}
	return ds, model.NewLogisticRegression(ds.Classes, ds.Dim), nil
}

// objectTask builds the CIFAR-like task at the configured scale.
func objectTask(cfg Config) (*dataset.Dataset, model.Model, error) {
	ds, err := dataset.CIFARLike(
		scaleInt(50000, cfg.Scale, 1000),
		scaleInt(10000, cfg.Scale, 500),
		cfg.Seed,
	)
	if err != nil {
		return nil, nil, err
	}
	return ds, model.NewLogisticRegression(ds.Classes, ds.Dim), nil
}

// averageTrials averages cfg.Trials runs of one curve — the "averaged test
// errors from 10 trials" protocol of Section V-C. Trial i runs at seed
// cfg.Seed + i·seedStep.
func averageTrials(cfg Config, name string, seedStep uint64, run func(seed uint64) (metrics.Series, error)) (metrics.Series, error) {
	trials := make([]metrics.Series, cfg.Trials)
	for i := range trials {
		var err error
		if trials[i], err = run(cfg.Seed + uint64(i)*seedStep); err != nil {
			return metrics.Series{}, err
		}
	}
	avg, err := metrics.AverageSeries(trials)
	avg.Name = name
	return avg, err
}

// crowdCurve averages Trials runs of a crowd.
func crowdCurve(cfg Config, base scenario.Crowd, name string) (metrics.Series, error) {
	return averageTrials(cfg, name, 1_000_003, func(seed uint64) (metrics.Series, error) {
		c := base
		c.Seed = seed
		rep, err := scenario.RunCrowd(context.Background(), c)
		if err != nil {
			return metrics.Series{}, err
		}
		var curve metrics.Series
		for _, p := range rep.Curve {
			curve.Append(float64(p.Samples), p.TestError)
		}
		return curve, nil
	})
}

// comparisonSetup bundles what Figs. 4–9 share: a dataset, a model, and the
// scaled device count.
type comparisonSetup struct {
	ds      *dataset.Dataset
	m       model.Model
	devices int
	eval    int // eval-subset size
}

func newComparisonSetup(cfg Config, digits bool) (*comparisonSetup, error) {
	var (
		ds  *dataset.Dataset
		m   model.Model
		err error
	)
	if digits {
		ds, m, err = digitTask(cfg)
	} else {
		ds, m, err = objectTask(cfg)
	}
	if err != nil {
		return nil, err
	}
	return &comparisonSetup{
		ds:      ds,
		m:       m,
		devices: scaleInt(1000, cfg.Scale, 20),
		eval:    2000,
	}, nil
}

// crowdBase is the figures' common crowd: M devices over the task for the
// given number of passes, b = 1, the tuned SGD, no privacy, no delay.
func (s *comparisonSetup) crowdBase(cfg Config, passes int) scenario.Crowd {
	total := passes * len(s.ds.Train)
	return scenario.Crowd{
		Plan: scenario.Plan{
			Name: "crowd-ml", Topology: scenario.TopologyInProcess,
			Devices: s.devices, Samples: total,
			EvalEvery: total / cfg.EvalPoints, EvalSubset: s.eval,
		},
		Model: s.m, Train: s.ds.Train, Test: s.ds.Test,
		NewUpdater: sgd,
	}
}

func (f *Figure) addNote(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}
