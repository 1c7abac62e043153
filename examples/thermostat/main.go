// Smart thermostats — the paper's very first motivating application:
// "learning optimal settings of room temperatures for smart thermostats."
//
// A fleet of stationary thermostat devices collectively learns to predict
// each household's preferred temperature offset from context features
// (time-of-day encoding, occupancy, outdoor temperature), using the
// framework's ridge-regression model. Gradients are residual-clipped on the
// device (bounding DP sensitivity) and Laplace-sanitized before checkin, so
// no household's raw comfort profile ever leaves its thermostat.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand/v2"

	crowdml "github.com/crowdml/crowdml"
)

// Feature layout for the thermostat context vector (L1-normalized).
const (
	fBias = iota
	fSinHour
	fCosHour
	fOccupied
	fOutdoorCold
	numFeatures
)

// trueWeights is the population-level comfort model the fleet should
// recover: a baseline offset, a day/night cycle, a bump when occupied,
// and compensation when it is cold outside. Targets are offsets from 20 °C
// in units of 10 °C so they stay within the ±1 residual clip.
var trueWeights = []float64{0.05, 0.12, -0.08, 0.25, 0.18}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// contextSample draws one (context, preferred offset) observation for a
// household with individual taste noise.
func contextSample(r *rand.Rand) crowdml.Sample {
	hour := 24 * r.Float64()
	x := make([]float64, numFeatures)
	x[fBias] = 1
	x[fSinHour] = math.Sin(2 * math.Pi * hour / 24)
	x[fCosHour] = math.Cos(2 * math.Pi * hour / 24)
	if r.Float64() < 0.6 {
		x[fOccupied] = 1
	}
	outdoor := -10 + 40*r.Float64() // °C
	if outdoor < 10 {
		x[fOutdoorCold] = (10 - outdoor) / 20
	}
	var target float64
	for i, w := range trueWeights {
		target += w * x[i]
	}
	target += 0.02 * r.NormFloat64() // household taste noise
	crowdml.NormalizeL1(x)
	// The model predicts from the normalized features, so scale the
	// target consistently with the same norm the device transmitted.
	return crowdml.Sample{X: x, T: target}
}

func run() error {
	const (
		thermostats = 20
		perDevice   = 400
		minibatch   = 10
	)
	m := crowdml.NewRidgeRegression(numFeatures, 1.0, 0.05)
	server, err := crowdml.NewServer(crowdml.ServerConfig{
		Model:   m,
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 2}, 0),
	})
	if err != nil {
		return err
	}

	ctx := context.Background()
	devices := make([]*crowdml.Device, thermostats)
	for i := range devices {
		id := fmt.Sprintf("thermostat-%02d", i)
		token, err := server.RegisterDevice(ctx, id)
		if err != nil {
			return err
		}
		devices[i], err = crowdml.NewDevice(crowdml.DeviceConfig{
			ID: id, Token: token, Model: m,
			Transport: server,
			Minibatch: minibatch,
			Budget:    crowdml.Budget{Gradient: crowdml.Eps(50)},
			Seed:      uint64(i + 1),
		})
		if err != nil {
			return err
		}
	}

	streams := make([]*rand.Rand, thermostats)
	for i := range streams {
		streams[i] = rand.New(rand.NewPCG(uint64(100+i), 0))
	}
	for round := 0; round < perDevice; round++ {
		for i, d := range devices {
			if err := d.AddSample(ctx, contextSample(streams[i])); err != nil {
				return fmt.Errorf("thermostat %d: %w", i, err)
			}
		}
	}

	// Evaluate the fleet model on fresh contexts: mean absolute error of
	// the predicted temperature offset, reported in °C.
	eval := rand.New(rand.NewPCG(999, 0))
	var mae float64
	const evalN = 2000
	w := server.Params()
	for i := 0; i < evalN; i++ {
		s := contextSample(eval)
		pred := 0.0
		for j, wj := range w.Row(0) {
			pred += wj * s.X[j]
		}
		mae += math.Abs(pred-s.T) * 10 // back to °C
	}
	mae /= evalN

	fmt.Printf("fleet of %d thermostats, %d private checkins\n",
		thermostats, server.Iteration())
	fmt.Printf("mean absolute prediction error: %.2f °C\n", mae)
	fmt.Println("\nlearned context weights (scaled) vs population truth:")
	names := []string{"baseline", "sin(hour)", "cos(hour)", "occupied", "outdoor-cold"}
	for j, name := range names {
		fmt.Printf("  %-13s learned %+.3f\n", name, w.At(0, j))
	}
	if mae > 1.0 {
		return fmt.Errorf("fleet model too inaccurate: MAE %.2f °C", mae)
	}
	fmt.Println("\nNo household's raw comfort data ever left its thermostat.")
	return nil
}
