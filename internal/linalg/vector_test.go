package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{name: "empty", a: nil, b: nil, want: 0},
		{name: "ones", a: []float64{1, 1, 1}, b: []float64{1, 1, 1}, want: 3},
		{name: "orthogonal", a: []float64{1, 0}, b: []float64{0, 1}, want: 0},
		{name: "negative", a: []float64{1, -2, 3}, b: []float64{4, 5, -6}, want: 4 - 10 - 18},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); got != tt.want {
				t.Errorf("Dot(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	dst := []float64{1, 2, 3}
	Axpy(2, []float64{1, 1, 1}, dst)
	want := []float64{3, 4, 5}
	if !Equal(dst, want, 0) {
		t.Errorf("Axpy = %v, want %v", dst, want)
	}
}

func TestScaleAddSub(t *testing.T) {
	x := []float64{1, -2, 4}
	Scale(0.5, x)
	if !Equal(x, []float64{0.5, -1, 2}, 0) {
		t.Errorf("Scale = %v", x)
	}
	dst := make([]float64, 3)
	Sub([]float64{1, 2, 3}, []float64{4, 5, 6}, dst)
	if !Equal(dst, []float64{-3, -3, -3}, 0) {
		t.Errorf("Sub = %v", dst)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if got := Norm1(x); got != 7 {
		t.Errorf("Norm1 = %v, want 7", got)
	}
	if got := Norm2(x); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm2Sq(x); got != 25 {
		t.Errorf("Norm2Sq = %v, want 25", got)
	}
}

func TestArgMax(t *testing.T) {
	tests := []struct {
		name string
		x    []float64
		want int
	}{
		{name: "empty", x: nil, want: -1},
		{name: "single", x: []float64{5}, want: 0},
		{name: "middle", x: []float64{1, 9, 3}, want: 1},
		{name: "tie first wins", x: []float64{2, 2, 1}, want: 0},
		{name: "negative", x: []float64{-3, -1, -2}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ArgMax(tt.x); got != tt.want {
				t.Errorf("ArgMax(%v) = %d, want %d", tt.x, got, tt.want)
			}
		})
	}
}

func TestNormalizeL1(t *testing.T) {
	x := []float64{1, -3}
	NormalizeL1(x)
	if math.Abs(Norm1(x)-1) > 1e-12 {
		t.Errorf("after NormalizeL1, Norm1 = %v, want 1", Norm1(x))
	}
	zero := []float64{0, 0}
	NormalizeL1(zero)
	if !Equal(zero, []float64{0, 0}, 0) {
		t.Errorf("NormalizeL1 of zero vector changed it: %v", zero)
	}
}

// Property: the ball projection always lands inside the ball and is the
// identity for vectors already inside. This is the invariant the SGD update
// Eq. (3) relies on.
func TestProjectBallProperty(t *testing.T) {
	f := func(raw []float64, rSeed uint8) bool {
		r := 0.5 + float64(rSeed%50) // radius in [0.5, 49.5]
		w := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			w[i] = math.Mod(v, 1e6)
		}
		before := Copy(w)
		ProjectBall(w, r)
		if Norm2(w) > r*(1+1e-9) {
			return false
		}
		if Norm2(before) <= r && !Equal(before, w, 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestProjectBallDisabled(t *testing.T) {
	w := []float64{100, 100}
	ProjectBall(w, 0)
	if !Equal(w, []float64{100, 100}, 0) {
		t.Errorf("ProjectBall with r=0 should be identity, got %v", w)
	}
}

func TestEqual(t *testing.T) {
	if Equal([]float64{1}, []float64{1, 2}, 0) {
		t.Error("Equal should be false for different lengths")
	}
	if !Equal([]float64{1, 2}, []float64{1.0005, 2}, 1e-3) {
		t.Error("Equal should be true within tolerance")
	}
}

func TestCopyZero(t *testing.T) {
	src := []float64{1, 2}
	dst := Copy(src)
	dst[0] = 9
	if src[0] != 1 {
		t.Error("Copy must not alias the source")
	}
	Zero(src)
	if !Equal(src, []float64{0, 0}, 0) {
		t.Errorf("Zero = %v", src)
	}
}
