package metrics

import (
	"math"
	"testing"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
)

func twoClassFixture() (model.Model, *linalg.Matrix, []model.Sample) {
	m := model.NewLogisticRegression(2, 2)
	w := model.NewParams(m)
	w.Set(0, 0, 1)
	w.Set(1, 1, 1)
	samples := []model.Sample{
		{X: []float64{1, 0}, Y: 0}, // correct
		{X: []float64{0, 1}, Y: 1}, // correct
		{X: []float64{1, 0}, Y: 1}, // wrong
		{X: []float64{0, 1}, Y: 0}, // wrong
	}
	return m, w, samples
}

func TestTestError(t *testing.T) {
	m, w, samples := twoClassFixture()
	if got := TestError(m, w, samples); got != 0.5 {
		t.Errorf("TestError = %v, want 0.5", got)
	}
	if got := TestError(m, w, nil); got != 0 {
		t.Errorf("TestError(empty) = %v, want 0", got)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Final() != 0 || s.Min() != 0 {
		t.Error("empty series should report 0")
	}
	s.Append(1, 0.9)
	s.Append(2, 0.3)
	s.Append(3, 0.5)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Final() != 0.5 {
		t.Errorf("Final = %v", s.Final())
	}
	if s.Min() != 0.3 {
		t.Errorf("Min = %v", s.Min())
	}
}

func TestAverageSeries(t *testing.T) {
	a := Series{Name: "x", X: []float64{1, 2}, Y: []float64{0.2, 0.4}}
	b := Series{Name: "x", X: []float64{1, 2}, Y: []float64{0.4, 0.0}}
	avg, err := AverageSeries([]Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.Equal(avg.Y, []float64{0.3, 0.2}, 1e-12) {
		t.Errorf("averaged Y = %v", avg.Y)
	}
	if avg.Name != "x" {
		t.Errorf("name = %q", avg.Name)
	}
	if _, err := AverageSeries(nil); err == nil {
		t.Error("expected error for no trials")
	}
	short := Series{X: []float64{1}, Y: []float64{0.1}}
	if _, err := AverageSeries([]Series{a, short}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
}

func TestConstantSeries(t *testing.T) {
	s := ConstantSeries("batch", []float64{1, 2, 3}, 0.1)
	for i, y := range s.Y {
		if math.Abs(y-0.1) > 1e-15 {
			t.Errorf("Y[%d] = %v", i, y)
		}
	}
	if s.Name != "batch" || s.Len() != 3 {
		t.Errorf("series = %+v", s)
	}
}
