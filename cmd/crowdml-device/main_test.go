package main

import (
	"math"
	"testing"

	crowdml "github.com/crowdml/crowdml"
)

func TestGradientBudget(t *testing.T) {
	tests := []struct {
		epsInv float64
		want   crowdml.Eps
		ok     bool
	}{
		{epsInv: 0, want: 0, ok: true},
		{epsInv: 0.1, want: crowdml.FromInv(0.1), ok: true},
		{epsInv: 10, want: crowdml.FromInv(10), ok: true},
		{epsInv: -0.1},
		{epsInv: math.NaN()},
		{epsInv: math.Inf(1)},
		{epsInv: math.Inf(-1)},
	}
	for _, tt := range tests {
		b, err := gradientBudget(tt.epsInv)
		if (err == nil) != tt.ok {
			t.Errorf("gradientBudget(%v): err = %v, want ok = %v", tt.epsInv, err, tt.ok)
			continue
		}
		if tt.ok && (b.Gradient != tt.want || b.ErrCount != 0 || b.LabelCount != 0) {
			t.Errorf("gradientBudget(%v) = %+v, want Gradient %v alone", tt.epsInv, b, tt.want)
		}
	}
}
