package linalg

import (
	"errors"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Errorf("At(1,2) = %v, want 5", m.At(1, 2))
	}
	row := m.Row(1)
	row[0] = 7
	if m.At(1, 0) != 7 {
		t.Error("Row must share storage with the matrix")
	}
}

func TestNewMatrixFrom(t *testing.T) {
	m, err := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("NewMatrixFrom: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := NewMatrixFrom(2, 2, []float64{1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("expected ErrDimensionMismatch, got %v", err)
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := NewMatrixFrom(2, 3, []float64{1, 0, 2, 0, 1, -1})
	x := []float64{1, 2, 3}
	dst := make([]float64, 2)
	m.MulVec(x, dst)
	if !Equal(dst, []float64{7, -1}, 1e-12) {
		t.Errorf("MulVec = %v, want [7 -1]", dst)
	}
}

func TestAddScaledAndNorms(t *testing.T) {
	m, _ := NewMatrixFrom(1, 2, []float64{3, -4})
	o, _ := NewMatrixFrom(1, 2, []float64{1, 1})
	if err := m.AddScaled(2, o); err != nil {
		t.Fatalf("AddScaled: %v", err)
	}
	if !Equal(m.Data(), []float64{5, -2}, 0) {
		t.Errorf("AddScaled = %v", m.Data())
	}
	if err := m.AddScaled(1, NewMatrix(2, 2)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("expected ErrDimensionMismatch, got %v", err)
	}
	m2, _ := NewMatrixFrom(1, 2, []float64{3, -4})
	if m2.Norm1() != 7 {
		t.Errorf("Norm1 = %v, want 7", m2.Norm1())
	}
	m2.Scale(2)
	if !Equal(m2.Data(), []float64{6, -8}, 0) {
		t.Errorf("Scale = %v", m2.Data())
	}
	m2.Zero()
	if !Equal(m2.Data(), []float64{0, 0}, 0) {
		t.Errorf("Zero = %v", m2.Data())
	}
}

func TestMeanVariance(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of single element should be 0")
	}
	if got := Variance([]float64{1, 3}); got != 1 {
		t.Errorf("Variance = %v, want 1", got)
	}
}
