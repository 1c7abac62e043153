// Activity recognition — the paper's real-environment demonstration
// (Section V-B / Fig. 3) end to end: seven simulated smartphones sample
// tri-axial accelerometers at 20 Hz, compute 64-bin FFT features over
// 3.2 s windows of acceleration magnitude, and collectively learn a
// 3-class activity classifier (Still / On Foot / In Vehicle) with local
// differential privacy. The program prints the time-averaged error curve
// Err(t), reproducing the shape of Fig. 3.
package main

import (
	"context"
	"fmt"
	"log"

	crowdml "github.com/crowdml/crowdml"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		phones       = 7
		totalSamples = 600
		rate         = 10.0 // c in η(t) = c/√t
		// Gradient privacy: ε_g = 50. Fig. 3 itself runs with privacy off
		// (ε⁻¹ = 0); this demo turns the mechanism on at a level where the
		// 3-class task still converges with b=5 minibatches. The L1-
		// normalized spectra make per-element gradients ~1/64 in scale, so
		// the tolerable noise is smaller than on the paper's raw features.
		epsInv    = 0.02
		minibatch = 5
	)
	m := crowdml.NewLogisticRegression(crowdml.ActivityClasses, crowdml.ActivityFeatureDim)
	server, err := crowdml.NewServer(crowdml.ServerConfig{
		Model:   m,
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: rate}, 0),
	})
	if err != nil {
		return err
	}

	ctx := context.Background()
	gens := make([]crowdml.SampleSource, phones)
	devs := make([]*crowdml.Device, phones)
	for i := range devs {
		id := fmt.Sprintf("phone-%d", i)
		token, err := server.RegisterDevice(ctx, id)
		if err != nil {
			return err
		}
		gens[i] = crowdml.NewActivitySimulator(uint64(1000 + i))
		devs[i], err = crowdml.NewDevice(crowdml.DeviceConfig{
			ID: id, Token: token, Model: m,
			Transport: server,
			Minibatch: minibatch,
			// The counter budgets only affect the quality of the portal's
			// progress estimates, never the learning itself (Appendix B
			// Remark 1); with only ~600 samples in this demo they are set
			// high enough for the estimates to be readable.
			Budget: crowdml.Budget{
				Gradient:   crowdml.FromInv(epsInv),
				ErrCount:   crowdml.Eps(5),
				LabelCount: crowdml.Eps(5),
			},
			Seed: uint64(2000 + i),
		})
		if err != nil {
			return err
		}
	}
	total := crowdml.Budget{
		Gradient: crowdml.FromInv(epsInv), ErrCount: crowdml.Eps(5),
		LabelCount: crowdml.Eps(5),
	}.Total(crowdml.ActivityClasses)
	fmt.Printf("7 phones, 3 activities, per-checkin privacy ε = %.2f\n\n", float64(total))

	fmt.Println("samples  time-averaged error")
	for n := 1; n <= totalSamples; n++ {
		phone := (n - 1) % phones
		s, err := gens[phone].Next()
		if err != nil {
			return err
		}
		if err := devs[phone].AddSample(ctx, s); err != nil {
			return fmt.Errorf("phone %d: %w", phone, err)
		}
		if n%25 == 0 {
			if est, ok := server.ErrEstimate(); ok {
				fmt.Printf("%7d  %.3f\n", n, est)
			}
		}
	}

	prior, _ := server.PriorEstimate()
	fmt.Println("\nestimated activity distribution (differentially private):")
	names := crowdml.ActivityNames()
	for k, p := range prior {
		fmt.Printf("  %-10s %.2f\n", names[k], p)
	}
	return nil
}
