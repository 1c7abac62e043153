package attack

import (
	"math"
	"testing"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/rng"
)

func TestDistinguishRespectsDPBound(t *testing.T) {
	// The optimal likelihood-ratio adversary must not beat the DP bound
	// e^ε/(1+e^ε). This is the empirical verification of Theorem 1.
	tests := []struct {
		name string
		eps  privacy.Eps
		b    int
	}{
		{name: "eps 0.5 b=1", eps: 0.5, b: 1},
		{name: "eps 1 b=1", eps: 1, b: 1},
		{name: "eps 1 b=20", eps: 1, b: 20},
		{name: "eps 2 b=1", eps: 2, b: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := RunDistinguish(DistinguishConfig{
				Model:  model.NewLogisticRegression(4, 10),
				Eps:    tt.eps,
				Batch:  tt.b,
				Rounds: 4000,
				Seed:   7,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Allow 3σ sampling slack above the bound.
			slack := 3 * math.Sqrt(0.25/4000)
			if res.Accuracy > res.Bound+slack {
				t.Errorf("adversary accuracy %v exceeds DP bound %v",
					res.Accuracy, res.Bound)
			}
			// The adversary should also be meaningfully better than a coin
			// at high ε with b=1 (otherwise the test tests nothing).
			if tt.eps == 2 && tt.b == 1 && res.Accuracy < 0.55 {
				t.Errorf("optimal adversary suspiciously weak: %v", res.Accuracy)
			}
		})
	}
}

func TestDistinguishHardensWithMoreAveraging(t *testing.T) {
	run := func(b int) float64 {
		res, err := RunDistinguish(DistinguishConfig{
			Model:  model.NewLogisticRegression(4, 10),
			Eps:    4,
			Batch:  b,
			Rounds: 4000,
			Seed:   11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Accuracy
	}
	// Same ε: the guarantee is identical, but larger b shrinks the gap
	// between neighboring gradients faster than the noise, so the
	// practical advantage drops.
	small := run(1)
	large := run(50)
	if large > small {
		t.Errorf("adversary should weaken with b: b=1 %v, b=50 %v", small, large)
	}
}

func TestDistinguishValidation(t *testing.T) {
	if _, err := RunDistinguish(DistinguishConfig{Eps: 1}); err == nil {
		t.Error("missing model should error")
	}
	if _, err := RunDistinguish(DistinguishConfig{
		Model: model.NewLogisticRegression(2, 2),
	}); err == nil {
		t.Error("disabled eps should error")
	}
}

// TestParseStrategyRoundTrip pins the wire names used by scenario files
// and CLI flags to their strategies, both directions.
func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range []PoisonStrategy{PoisonLargeGradient, PoisonSignFlip} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v, want %v", s.String(), got, err, s)
		}
	}
	if _, err := ParseStrategy("gradient-ascent"); err == nil {
		t.Error("ParseStrategy accepted an unknown name")
	}
}

// TestCorrupt checks the shared poisoning primitive: sign-flip is an
// exact scaled negation, large-gradient replaces every coordinate within
// the magnitude envelope, and an unknown strategy is a no-op.
func TestCorrupt(t *testing.T) {
	mk := func() *linalg.Matrix {
		g, err := linalg.NewMatrixFrom(1, 4, []float64{0.5, -0.25, 1, 0})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	r := rng.New(9)

	g := mk()
	Corrupt(g, PoisonSignFlip, 10, r)
	want := []float64{-5, 2.5, -10, 0}
	for i, v := range g.Data() {
		if v != want[i] {
			t.Fatalf("sign-flip[%d] = %v, want %v", i, v, want[i])
		}
	}

	g = mk()
	Corrupt(g, PoisonLargeGradient, 100, r)
	changed := false
	for i, v := range g.Data() {
		if v != mk().Data()[i] {
			changed = true
		}
		if v < -50 || v > 50 {
			t.Fatalf("large-gradient[%d] = %v outside ±magnitude/2", i, v)
		}
	}
	if !changed {
		t.Error("large-gradient left the gradient untouched")
	}

	g = mk()
	Corrupt(g, PoisonStrategy(99), 10, r)
	for i, v := range g.Data() {
		if v != mk().Data()[i] {
			t.Fatalf("unknown strategy modified the gradient at [%d]", i)
		}
	}
}
