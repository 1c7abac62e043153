// Package activity simulates the real-environment experiment of
// Section V-B: activity recognition from tri-axial accelerometer traces on
// smartphones. The paper's setup (7 Android phones, 20 Hz accelerometers,
// Google's activity-recognition service for ground truth) is replaced by a
// synthetic signal generator with class-conditional spectral signatures:
//
//	Still:     gravity plus small sensor noise;
//	OnFoot:    a ~2 Hz step oscillation with a harmonic, typical of walking;
//	InVehicle: low-frequency body sway plus a high-frequency engine line.
//
// The feature pipeline is the paper's: acceleration magnitudes over 3.2 s
// (64-sample) windows → 64-bin FFT magnitude spectrum → L1 normalization.
// The spectrum comes from an in-place radix-2 decimation-in-time FFT
// (fft.go).
// Sampling is label-change triggered, matching the paper's trick of keeping
// only samples whose label differs from the previous one.
package activity

import (
	"fmt"
	"math"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/rng"
)

// Activity labels (3-class task of Section V-B).
const (
	Still = iota
	OnFoot
	InVehicle

	// NumClasses is the number of activity classes.
	NumClasses = 3
)

// Names maps labels to the paper's activity names.
var Names = [NumClasses]string{"Still", "On Foot", "In Vehicle"}

// Pipeline constants from Section V-B.
const (
	// SampleRateHz is the accelerometer sampling rate.
	SampleRateHz = 20
	// WindowSize is the 3.2 s window at 20 Hz: 64 samples, giving the
	// paper's 64-bin FFT.
	WindowSize = 64
	// FeatureDim is the feature dimensionality (64 spectral bins).
	FeatureDim = WindowSize
)

// Generator produces labeled activity windows for one simulated device.
// It is deterministic given its seed; separate devices should use
// separate seeds.
type Generator struct {
	r    *rng.RNG
	last int // previous activity label, for label-change-triggered sampling
	// gravity is the baseline |a| in m/s².
	gravity float64
}

// NewGenerator returns a generator seeded for one device.
func NewGenerator(seed uint64) *Generator {
	return &Generator{r: rng.New(seed), last: -1, gravity: 9.81}
}

// rawWindow synthesizes one WindowSize-sample magnitude trace for the
// given activity.
func (g *Generator) rawWindow(label int) []float64 {
	w := make([]float64, WindowSize)
	phase := g.r.Uniform(0, 2*math.Pi)
	phase2 := g.r.Uniform(0, 2*math.Pi)
	for i := range w {
		t := float64(i) / SampleRateHz
		switch label {
		case Still:
			w[i] = g.gravity + g.r.Normal(0, 0.05)
		case OnFoot:
			// ~2 Hz stride with a 4 Hz harmonic and substantial jitter.
			step := 2.0 + 0.2*math.Sin(phase2)
			w[i] = g.gravity +
				2.5*math.Sin(2*math.Pi*step*t+phase) +
				1.0*math.Sin(2*math.Pi*2*step*t+phase2) +
				g.r.Normal(0, 0.5)
		case InVehicle:
			// Low-frequency sway plus an ~8 Hz engine/road vibration line.
			w[i] = g.gravity +
				0.8*math.Sin(2*math.Pi*0.7*t+phase) +
				0.4*math.Sin(2*math.Pi*8.3*t+phase2) +
				g.r.Normal(0, 0.25)
		}
	}
	return w
}

// Features converts a raw magnitude window into the paper's feature vector:
// de-meaned 64-bin FFT magnitude spectrum, L1 normalized. De-meaning removes
// the gravity DC component that would otherwise dominate every class's
// spectrum identically.
func Features(window []float64) ([]float64, error) {
	if len(window) != WindowSize {
		return nil, fmt.Errorf("activity: window length %d, want %d", len(window), WindowSize)
	}
	centered := make([]float64, WindowSize)
	mean := linalg.Mean(window)
	for i, v := range window {
		centered[i] = v - mean
	}
	mag, err := magnitudeSpectrum(centered)
	if err != nil {
		return nil, err
	}
	linalg.NormalizeL1(mag)
	return mag, nil
}

// Next produces the next labeled sample. Labels follow the paper's
// label-change-triggered collection: each emitted sample's activity differs
// from the previous one, which both diversifies labels and mimics the
// effective ~1/352 Hz sample rate of the deployment.
func (g *Generator) Next() (model.Sample, error) {
	label := g.r.Intn(NumClasses)
	if label == g.last {
		label = (label + 1 + g.r.Intn(NumClasses-1)) % NumClasses
	}
	g.last = label
	x, err := Features(g.rawWindow(label))
	if err != nil {
		return model.Sample{}, err
	}
	return model.Sample{X: x, Y: label}, nil
}

// Stream produces n consecutive samples from the generator.
func (g *Generator) Stream(n int) ([]model.Sample, error) {
	out := make([]model.Sample, n)
	for i := range out {
		s, err := g.Next()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
