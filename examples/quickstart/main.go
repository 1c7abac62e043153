// Quickstart: the smallest complete Crowd-ML deployment. Five in-process
// devices learn a shared 2-class classifier from their local samples with
// local differential privacy (ε = 100 per contribution), and the program
// prints the server's running error estimate — the differentially private
// statistic the paper's Web portal would display.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	crowdml "github.com/crowdml/crowdml"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		devices   = 5
		perDevice = 200
		dim       = 8
	)
	// Host the learning task on a hub — the unit one server process can
	// hold many of (each addressable over HTTP as /v1/tasks/{id}/...).
	ctx := context.Background()
	m := crowdml.NewLogisticRegression(2, dim)
	hub := crowdml.NewHub()
	task, err := hub.CreateTask(ctx, "quickstart", crowdml.ServerConfig{
		Model:   m,
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 10}, 0),
	})
	if err != nil {
		return err
	}
	server := task.Server()

	// Enroll devices; each gets its own auth token and privacy budget.
	devs := make([]*crowdml.Device, devices)
	for i := range devs {
		id := fmt.Sprintf("device-%d", i)
		token, err := server.RegisterDevice(ctx, id)
		if err != nil {
			return err
		}
		devs[i], err = crowdml.NewDevice(crowdml.DeviceConfig{
			ID: id, Token: token, Model: m,
			Transport: server,
			Minibatch: 4,
			Budget:    crowdml.Budget{Gradient: crowdml.Eps(100)},
			Seed:      uint64(i + 1),
		})
		if err != nil {
			return err
		}
	}

	// Each device streams its own sensor-like data: two noisy clusters.
	r := rand.New(rand.NewPCG(7, 0))
	for round := 0; round < perDevice; round++ {
		for i, d := range devs {
			y := (round + i) % 2
			x := make([]float64, dim)
			for j := range x {
				x[j] = 0.1 * r.NormFloat64()
			}
			x[y] += 1 // class signal in coordinate y
			crowdml.NormalizeL1(x)
			if err := d.AddSample(ctx, crowdml.Sample{X: x, Y: y}); err != nil {
				return fmt.Errorf("device %d: %w", i, err)
			}
		}
		if round%50 == 49 {
			if est, ok := server.ErrEstimate(); ok {
				fmt.Printf("after %4d samples/device: online error ≈ %.3f (iteration %d)\n",
					round+1, est, server.Iteration())
			}
		}
	}

	est, _ := server.ErrEstimate()
	prior, _ := server.PriorEstimate()
	fmt.Printf("\nfinal online error estimate: %.3f\n", est)
	fmt.Printf("estimated class prior:       [%.2f %.2f]\n", prior[0], prior[1])
	fmt.Printf("server iterations:           %d\n", server.Iteration())
	return nil
}
