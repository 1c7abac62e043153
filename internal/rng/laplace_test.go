package rng

import (
	"math"
	"testing"
)

func TestLaplaceMoments(t *testing.T) {
	// Laplace(scale) has mean 0 and variance 2*scale^2.
	tests := []struct {
		name  string
		scale float64
	}{
		{name: "scale 1", scale: 1},
		{name: "scale 0.1", scale: 0.1},
		{name: "scale 4", scale: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := New(31)
			const n = 200000
			var sum, sumSq float64
			for i := 0; i < n; i++ {
				v := r.Laplace(tt.scale)
				sum += v
				sumSq += v * v
			}
			mean := sum / n
			variance := sumSq/n - mean*mean
			wantVar := 2 * tt.scale * tt.scale
			if math.Abs(mean) > 0.03*tt.scale+1e-3 {
				t.Errorf("mean = %v, want ~0", mean)
			}
			if math.Abs(variance-wantVar) > 0.05*wantVar {
				t.Errorf("variance = %v, want ~%v", variance, wantVar)
			}
		})
	}
}

func TestLaplaceSymmetry(t *testing.T) {
	r := New(37)
	pos := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Laplace(1) > 0 {
			pos++
		}
	}
	frac := float64(pos) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("positive fraction = %v, want ~0.5", frac)
	}
}

func TestLaplaceTail(t *testing.T) {
	// P(|Z| > t) = exp(-t/scale). Check at t = 2, scale = 1: e^-2 ≈ 0.1353.
	r := New(41)
	const n = 200000
	exceed := 0
	for i := 0; i < n; i++ {
		if math.Abs(r.Laplace(1)) > 2 {
			exceed++
		}
	}
	frac := float64(exceed) / n
	want := math.Exp(-2)
	if math.Abs(frac-want) > 0.01 {
		t.Errorf("tail fraction = %v, want ~%v", frac, want)
	}
}

func TestLaplacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive scale")
		}
	}()
	New(1).Laplace(0)
}

func TestDiscreteLaplaceMoments(t *testing.T) {
	// Discrete Laplace with p = exp(-1/scale) has mean 0 and variance
	// 2p/(1-p)^2 (Inusah & Kozubowski 2006) — the paper quotes the same
	// expression with p = e^{-ε/2} in Appendix B Remark 2.
	tests := []struct {
		name  string
		scale float64
	}{
		{name: "eps 2 (scale 1)", scale: 1},
		{name: "eps 0.5 (scale 4)", scale: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := New(47)
			p := math.Exp(-1 / tt.scale)
			wantVar := 2 * p / ((1 - p) * (1 - p))
			const n = 300000
			var sum, sumSq float64
			for i := 0; i < n; i++ {
				v := float64(r.DiscreteLaplace(tt.scale))
				sum += v
				sumSq += v * v
			}
			mean := sum / n
			variance := sumSq/n - mean*mean
			if math.Abs(mean) > 0.05*math.Sqrt(wantVar) {
				t.Errorf("mean = %v, want ~0", mean)
			}
			if math.Abs(variance-wantVar) > 0.05*wantVar {
				t.Errorf("variance = %v, want ~%v", variance, wantVar)
			}
		})
	}
}

func TestDiscreteLaplaceRatioProperty(t *testing.T) {
	// The defining property: P(z)/P(z+1) = exp(1/scale) for z >= 0.
	// Estimate empirically at z = 0 vs z = 1.
	r := New(53)
	const n = 500000
	scale := 2.0
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		counts[r.DiscreteLaplace(scale)]++
	}
	if counts[1] == 0 {
		t.Fatal("no mass at z=1")
	}
	ratio := float64(counts[0]) / float64(counts[1])
	want := math.Exp(1 / scale)
	if math.Abs(ratio-want) > 0.1*want {
		t.Errorf("P(0)/P(1) = %v, want ~%v", ratio, want)
	}
}

func TestDiscreteLaplacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive scale")
		}
	}()
	New(1).DiscreteLaplace(-1)
}
