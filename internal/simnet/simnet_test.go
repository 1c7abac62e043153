package simnet

import (
	"testing"

	"github.com/crowdml/crowdml/internal/rng"
)

func TestUniformRange(t *testing.T) {
	r := rng.New(2)
	d := Uniform{Max: 10}
	seenHigh := false
	for i := 0; i < 10000; i++ {
		v := d.Draw(r)
		if v < 0 || v >= 10 {
			t.Fatalf("Uniform draw out of range: %v", v)
		}
		if v > 5 {
			seenHigh = true
		}
	}
	if !seenHigh {
		t.Error("uniform delays never exceeded half the range")
	}
}

func TestUniformZeroMax(t *testing.T) {
	r := rng.New(3)
	d := Uniform{Max: 0}
	if d.Draw(r) != 0 {
		t.Error("Max=0 should draw 0")
	}
	neg := Uniform{Max: -5}
	if neg.Draw(r) != 0 {
		t.Error("negative Max should draw 0")
	}
}

func TestUniformMean(t *testing.T) {
	r := rng.New(4)
	d := Uniform{Max: 100}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += d.Draw(r)
	}
	mean := sum / n
	if mean < 48 || mean > 52 {
		t.Errorf("uniform mean = %v, want ~50", mean)
	}
}
