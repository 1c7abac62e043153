package baseline

import (
	"math"
	"testing"

	"github.com/crowdml/crowdml/internal/optimizer"
)

func TestRunDecentralValidation(t *testing.T) {
	ds, m := smallTask(t)
	if _, err := RunDecentral(DecentralConfig{Train: ds.Train}); err == nil {
		t.Error("expected error for missing model/schedule")
	}
	if _, err := RunDecentral(DecentralConfig{
		Model: m, Schedule: optimizer.InvSqrt{C: 1}, Devices: 0, Train: ds.Train,
	}); err == nil {
		t.Error("expected error for zero devices")
	}
	if _, err := RunDecentral(DecentralConfig{
		Model: m, Schedule: optimizer.InvSqrt{C: 1}, Devices: 5,
	}); err == nil {
		t.Error("expected error for empty training set")
	}
}

// TestRunDecentralBitIdenticalSameSeed pins the decentralized baseline's
// determinism at full precision.
func TestRunDecentralBitIdenticalSameSeed(t *testing.T) {
	ds, m := smallTask(t)
	cfg := DecentralConfig{
		Model: m, Train: ds.Train, Test: ds.Test,
		Devices: 40, Schedule: optimizer.InvSqrt{C: 50}, Passes: 1,
		EvalDevices: 10, EvalSubset: 200, Seed: 11,
	}
	a, err := RunDecentral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDecentral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("curve lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Y {
		if math.Float64bits(a.Y[i]) != math.Float64bits(b.Y[i]) {
			t.Fatalf("same-seed decentral curves diverge at point %d", i)
		}
	}
}
