// Package dataset provides the evaluation datasets of Section V in
// synthetic form. The paper uses MNIST (PCA→50 dims) and CNN features of
// CIFAR-10 (PCA→100 dims); this repository has no network access, so both
// are replaced by Gaussian-mixture look-alikes with matched shape: same
// class count, same dimensionality, same L1 normalization (the ‖x‖₁ ≤ 1
// precondition of the privacy analysis), and within-class variance tuned
// so multiclass logistic regression reaches approximately the paper's
// asymptotic test errors (~0.1 for the digit task, ~0.3 for the object
// task). docs/EXPERIMENTS.md records what the substitution changes.
package dataset

import (
	"fmt"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/rng"
)

// Dataset is a labeled train/test split.
type Dataset struct {
	// Name identifies the dataset in experiment output.
	Name string
	// Classes is the number of target classes C.
	Classes int
	// Dim is the feature dimensionality D.
	Dim int
	// Train and Test are the sample sets.
	Train, Test []model.Sample
}

// MixtureConfig parameterizes the Gaussian-mixture generator.
type MixtureConfig struct {
	// Name labels the resulting dataset.
	Name string
	// Classes (C ≥ 2) and Dim (D ≥ 1) fix the task shape.
	Classes, Dim int
	// TrainSize and TestSize are sample counts.
	TrainSize, TestSize int
	// MeanScale is the per-coordinate standard deviation used to draw the
	// C class means.
	MeanScale float64
	// NoiseScale is the per-coordinate within-class standard deviation;
	// the NoiseScale/MeanScale ratio controls task difficulty.
	NoiseScale float64
	// Seed makes generation deterministic.
	Seed uint64
}

// GenerateMixture draws class means m_k ~ N(0, MeanScale²·I) and samples
// x = m_y + NoiseScale·N(0, I), with balanced classes and L1-normalized
// features.
func GenerateMixture(cfg MixtureConfig) (*Dataset, error) {
	if cfg.Classes < 2 || cfg.Dim < 1 {
		return nil, fmt.Errorf("dataset: invalid shape C=%d D=%d", cfg.Classes, cfg.Dim)
	}
	if cfg.TrainSize < 1 || cfg.TestSize < 0 {
		return nil, fmt.Errorf("dataset: invalid sizes train=%d test=%d",
			cfg.TrainSize, cfg.TestSize)
	}
	if cfg.MeanScale <= 0 || cfg.NoiseScale < 0 {
		return nil, fmt.Errorf("dataset: invalid scales mean=%v noise=%v",
			cfg.MeanScale, cfg.NoiseScale)
	}
	r := rng.New(cfg.Seed)
	means := make([][]float64, cfg.Classes)
	for k := range means {
		mk := make([]float64, cfg.Dim)
		for j := range mk {
			mk[j] = r.Normal(0, cfg.MeanScale)
		}
		means[k] = mk
	}
	draw := func(n int) []model.Sample {
		out := make([]model.Sample, n)
		for i := range out {
			y := i % cfg.Classes // balanced
			x := make([]float64, cfg.Dim)
			for j := range x {
				x[j] = means[y][j] + r.Normal(0, cfg.NoiseScale)
			}
			linalg.NormalizeL1(x)
			out[i] = model.Sample{X: x, Y: y}
		}
		r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	return &Dataset{
		Name:    cfg.Name,
		Classes: cfg.Classes,
		Dim:     cfg.Dim,
		Train:   draw(cfg.TrainSize),
		Test:    draw(cfg.TestSize),
	}, nil
}

// MNISTLike mirrors the paper's MNIST setup: 10 classes, 50 PCA dims,
// 60000/10000 train/test, difficulty tuned for ~0.1 asymptotic logistic-
// regression error. Pass smaller sizes to scale the experiment down
// (0 selects the paper's sizes).
func MNISTLike(trainSize, testSize int, seed uint64) (*Dataset, error) {
	if trainSize == 0 {
		trainSize = 60000
	}
	if testSize == 0 {
		testSize = 10000
	}
	return GenerateMixture(MixtureConfig{
		Name:       "mnist-like",
		Classes:    10,
		Dim:        50,
		TrainSize:  trainSize,
		TestSize:   testSize,
		MeanScale:  1.0,
		NoiseScale: 2.2,
		Seed:       seed,
	})
}

// CIFARLike mirrors the paper's CIFAR-10-through-CNN-features setup:
// 10 classes, 100 PCA dims, 50000/10000 train/test, tuned for ~0.3
// asymptotic error (the harder task of Appendix D). Zero sizes select the
// paper's sizes.
func CIFARLike(trainSize, testSize int, seed uint64) (*Dataset, error) {
	if trainSize == 0 {
		trainSize = 50000
	}
	if testSize == 0 {
		testSize = 10000
	}
	return GenerateMixture(MixtureConfig{
		Name:       "cifar-like",
		Classes:    10,
		Dim:        100,
		TrainSize:  trainSize,
		TestSize:   testSize,
		MeanScale:  1.0,
		NoiseScale: 4.5,
		Seed:       seed,
	})
}

// Assign deals the samples round-robin to m shards after a seeded shuffle —
// the per-device sample assignment of Section V-C ("assignment of samples
// … randomized"; with M=1000 each device holds 60 training samples on
// average). The input slice is not modified.
func Assign(samples []model.Sample, m int, r *rng.RNG) [][]model.Sample {
	if m < 1 {
		return nil
	}
	shuffled := make([]model.Sample, len(samples))
	copy(shuffled, samples)
	r.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	shards := make([][]model.Sample, m)
	per := (len(samples) + m - 1) / m
	for i := range shards {
		shards[i] = make([]model.Sample, 0, per)
	}
	for i, s := range shuffled {
		shards[i%m] = append(shards[i%m], s)
	}
	return shards
}

// Shuffled returns a seeded-shuffled copy of the samples.
func Shuffled(samples []model.Sample, r *rng.RNG) []model.Sample {
	out := make([]model.Sample, len(samples))
	copy(out, samples)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
