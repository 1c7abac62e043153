// Robustness study — the paper's Remark 3 in action: "adaptive learning
// rates can be used in place of (5), which can provide a robustness to
// large gradients from outlying or malignant devices."
//
// A crowd of 100 devices learns the digit task while 10% of them are
// malignant and check in huge random gradients. The program compares the
// damage under the plain c/√t SGD server against the AdaGrad server and a
// sensitivity-aware clip (each crowd is internal/scenario's engine, in
// process, with a byzantine cohort), and
// also reports how well an optimal eavesdropper can distinguish neighboring
// minibatches from the sanitized traffic (the empirical side of Theorem 1).
package main

import (
	"context"
	"fmt"
	"log"

	crowdml "github.com/crowdml/crowdml"
	"github.com/crowdml/crowdml/internal/attack"
	"github.com/crowdml/crowdml/internal/dataset"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ds, err := dataset.MNISTLike(6000, 1500, 99)
	if err != nil {
		return err
	}
	m := model.NewLogisticRegression(ds.Classes, ds.Dim)

	fmt.Println("=== Model poisoning: 10% malignant devices, huge gradients ===")
	for _, tc := range []struct {
		name string
		mk   func() optimizer.Updater
	}{
		{name: "SGD c/sqrt(t)", mk: func() optimizer.Updater {
			return &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 50}}
		}},
		{name: "AdaGrad (Remark 3)", mk: func() optimizer.Updater {
			return &optimizer.AdaGrad{Eta: 0.5}
		}},
		{name: "SGD + clip(L1≤4)", mk: func() optimizer.Updater {
			// The server knows honest averaged gradients satisfy
			// ‖g̃‖₁ ≤ 2 plus bounded noise (Appendix A), so clipping at 4
			// leaves honest traffic untouched and caps attacker damage.
			return &optimizer.Clip{
				Inner:    &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 50}},
				MaxNorm1: 4,
			}
		}},
	} {
		for _, frac := range []float64{0, 0.1} {
			// The crowd engine, in process: the poisoned gradients go
			// through the same core.Server production runs.
			rep, err := scenario.RunCrowd(context.Background(), scenario.Crowd{
				Plan: scenario.Plan{
					Name: "robustness", Topology: scenario.TopologyInProcess,
					Devices: 100, Samples: 12000, Seed: 3,
					Byzantine: scenario.ByzantineSpec{
						Fraction: frac, Strategy: attack.PoisonLargeGradient.String(), Magnitude: 30,
					},
				},
				Model: m, Train: ds.Train, Test: ds.Test,
				NewUpdater: tc.mk,
			})
			if err != nil {
				return err
			}
			fmt.Printf("  %-20s malicious=%3.0f%%  test error %.3f  (%d bad checkins)\n",
				tc.name, frac*100, rep.FinalTestError, rep.ByzantineCheckins)
		}
	}

	fmt.Println("\n=== Eavesdropper distinguishing test (Theorem 1, empirically) ===")
	fmt.Println("optimal likelihood-ratio adversary vs the DP accuracy bound e^ε/(1+e^ε):")
	for _, epsInv := range []float64{1, 0.5, 0.1} {
		eps := crowdml.FromInv(epsInv)
		res, err := attack.RunDistinguish(attack.DistinguishConfig{
			Model: m, Eps: eps, Batch: 20, Rounds: 5000, Seed: 4,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  ε=%-4g  adversary accuracy %.3f  ≤  bound %.3f\n",
			float64(eps), res.Accuracy, res.Bound)
	}
	fmt.Println("\nThe adversary never exceeds its information-theoretic bound;")
	fmt.Println("at this magnitude the poisoning cripples plain SGD and AdaGrad alike")
	fmt.Println("(AdaGrad ends lower at most seeds, not all), and the")
	fmt.Println("sensitivity-aware server-side clip neutralizes it entirely.")
	return nil
}
