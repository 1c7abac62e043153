package activity

import (
	"fmt"
	"math"
	"math/bits"
)

// fft computes the in-place radix-2 decimation-in-time fast Fourier
// transform of the complex sequence (re, im). The length must be a power
// of two; it returns an error otherwise.
func fft(re, im []float64) error {
	n := len(re)
	if len(im) != n {
		return fmt.Errorf("activity: fft re/im lengths differ: %d vs %d", n, len(im))
	}
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("activity: fft length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := -2 * math.Pi / float64(size)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += size {
			curRe, curIm := 1.0, 0.0
			for k := 0; k < half; k++ {
				i, j := start+k, start+k+half
				tRe := re[j]*curRe - im[j]*curIm
				tIm := re[j]*curIm + im[j]*curRe
				re[j], im[j] = re[i]-tRe, im[i]-tIm
				re[i], im[i] = re[i]+tRe, im[i]+tIm
				curRe, curIm = curRe*wRe-curIm*wIm, curRe*wIm+curIm*wRe
			}
		}
	}
	return nil
}

// magnitudeSpectrum returns the length-n magnitude spectrum |fft(signal)|
// of a real signal whose length must be a power of two. Element k is the
// magnitude of frequency bin k; the paper's activity pipeline uses the
// 64-bin spectrum of 64-sample windows.
func magnitudeSpectrum(signal []float64) ([]float64, error) {
	n := len(signal)
	re := make([]float64, n)
	im := make([]float64, n)
	copy(re, signal)
	if err := fft(re, im); err != nil {
		return nil, err
	}
	mag := make([]float64, n)
	for i := range mag {
		mag[i] = math.Hypot(re[i], im[i])
	}
	return mag, nil
}
