package linalg

import "fmt"

// Matrix is a dense row-major matrix. The zero value is an empty matrix.
//
// Crowd-ML stores the multiclass parameter block W = [w_1 … w_C] as a C×D
// Matrix so that a device can read one class row without copying.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: NewMatrix negative shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFrom wraps data (row-major, length rows*cols) without copying.
func NewMatrixFrom(rows, cols int, data []float64) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("linalg: data length %d != %d*%d: %w",
			len(data), rows, cols, ErrDimensionMismatch)
	}
	return &Matrix{rows: rows, cols: cols, data: data}, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns row i as a slice sharing the matrix's storage.
func (m *Matrix) Row(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the underlying row-major storage (shared, not copied).
func (m *Matrix) Data() []float64 { return m.data }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec computes dst = M·x where x has length Cols and dst has length Rows.
func (m *Matrix) MulVec(x, dst []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: MulVec shapes %dx%d · %d -> %d",
			m.rows, m.cols, len(x), len(dst)))
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
}

// AddScaled computes m += alpha * other elementwise. Shapes must match.
func (m *Matrix) AddScaled(alpha float64, other *Matrix) error {
	if m.rows != other.rows || m.cols != other.cols {
		return ErrDimensionMismatch
	}
	Axpy(alpha, other.data, m.data)
	return nil
}

// Scale multiplies every element by alpha.
func (m *Matrix) Scale(alpha float64) { Scale(alpha, m.data) }

// Zero resets all elements to zero.
func (m *Matrix) Zero() { Zero(m.data) }

// Norm1 returns the entrywise L1 norm (sum of absolute values).
func (m *Matrix) Norm1() float64 { return Norm1(m.data) }
