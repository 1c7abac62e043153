// Package metrics provides the evaluation measurements the paper's figures
// plot: held-out test error, and (x, y) series with multi-trial averaging.
package metrics

import (
	"fmt"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
)

// TestError returns the misclassification rate of w on samples
// (0 for an empty set).
func TestError(m model.Model, w *linalg.Matrix, samples []model.Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	errs := 0
	for _, s := range samples {
		if m.Misclassified(w, s) {
			errs++
		}
	}
	return float64(errs) / float64(len(samples))
}

// Series is one named curve: y values measured at x positions
// (iteration counts in all the paper's figures).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one measurement.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Final returns the last y value (the asymptotic error), or 0 when empty.
func (s *Series) Final() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// Min returns the smallest y value, or 0 when empty.
func (s *Series) Min() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	m := s.Y[0]
	for _, v := range s.Y[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// AverageSeries averages multiple trials of the same curve pointwise
// (all trials must share X grids; the name is taken from the first).
// This is the "averaged test errors from 10 trials" of Section V-C.
func AverageSeries(trials []Series) (Series, error) {
	if len(trials) == 0 {
		return Series{}, fmt.Errorf("metrics: no trials to average")
	}
	n := trials[0].Len()
	for i, tr := range trials {
		if tr.Len() != n {
			return Series{}, fmt.Errorf("metrics: trial %d has %d points, want %d",
				i, tr.Len(), n)
		}
	}
	out := Series{Name: trials[0].Name, X: linalg.Copy(trials[0].X), Y: make([]float64, n)}
	for _, tr := range trials {
		linalg.Axpy(1, tr.Y, out.Y)
	}
	linalg.Scale(1/float64(len(trials)), out.Y)
	return out, nil
}

// ConstantSeries returns a flat line (the "Central (batch)" reference in
// Figs. 4–9, which is not incremental and therefore constant).
func ConstantSeries(name string, x []float64, y float64) Series {
	s := Series{Name: name, X: linalg.Copy(x), Y: make([]float64, len(x))}
	for i := range s.Y {
		s.Y[i] = y
	}
	return s
}
