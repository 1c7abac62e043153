package activity

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/rng"
)

func TestFFTKnownValues(t *testing.T) {
	// FFT of a constant signal concentrates everything in bin 0.
	re := []float64{1, 1, 1, 1}
	im := make([]float64, 4)
	if err := fft(re, im); err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 0, 0, 0}
	if !linalg.Equal(re, want, 1e-12) || linalg.Norm1(im) > 1e-12 {
		t.Errorf("fft(const) = %v + %vi", re, im)
	}
}

func TestFFTSinglePureTone(t *testing.T) {
	// cos(2π·k·n/N) has spectrum peaks at bins k and N−k.
	const n, k = 64, 5
	signal := make([]float64, n)
	for i := range signal {
		signal[i] = math.Cos(2 * math.Pi * k * float64(i) / n)
	}
	mag, err := magnitudeSpectrum(signal)
	if err != nil {
		t.Fatal(err)
	}
	if got := linalg.ArgMax(mag[:n/2]); got != k {
		t.Errorf("dominant bin = %d, want %d", got, k)
	}
	if math.Abs(mag[k]-float64(n)/2) > 1e-9 {
		t.Errorf("peak magnitude = %v, want %v", mag[k], float64(n)/2)
	}
}

func TestFFTErrors(t *testing.T) {
	if err := fft(make([]float64, 3), make([]float64, 3)); err == nil {
		t.Error("expected error for non-power-of-two length")
	}
	if err := fft(make([]float64, 4), make([]float64, 2)); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	if err := fft(nil, nil); err != nil {
		t.Errorf("empty FFT should be a no-op, got %v", err)
	}
}

// Property (Parseval): Σ|x|² = (1/N)Σ|X|² for random real signals.
func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed uint32) bool {
		local := rng.New(uint64(seed))
		n := 1 << (1 + local.Intn(7)) // 2..128
		signal := make([]float64, n)
		for i := range signal {
			signal[i] = local.Uniform(-2, 2)
		}
		timeEnergy := linalg.Norm2Sq(signal)
		mag, err := magnitudeSpectrum(signal)
		if err != nil {
			return false
		}
		freqEnergy := linalg.Norm2Sq(mag) / float64(n)
		return math.Abs(timeEnergy-freqEnergy) < 1e-6*(1+timeEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
