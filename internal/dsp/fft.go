// Package dsp implements the signal-processing kernels used by the SPI
// paper's applications: FFT, autocorrelation, LU decomposition,
// linear-predictive coding (LPC) analysis, and uniform quantization.
//
// These are the computational actors of application 1 (LPC-based acoustic
// data compression: read → FFT → LU-based predictor coefficients → error
// generation → Huffman coding) and the numeric substrate for application 2.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two.
func FFT(x []complex128) error {
	return fftDir(x, false)
}

// IFFT computes the in-place inverse FFT (including the 1/N scaling).
func IFFT(x []complex128) error {
	return fftDir(x, true)
}

func fftDir(x []complex128, inverse bool) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	if n == 1 {
		return nil
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		wstep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wstep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// AutocorrelationFFT returns the biased autocorrelation r[0..maxLag] with
// r[k] = sum_i x[i]*x[i+k], computed via the Wiener-Khinchin theorem:
// r = IFFT(|FFT(x)|^2) with zero-padding to avoid circular wrap. The
// paper's application 1 computes its FFT actor (B) on the input frame, and
// the spectral route shares that work.
func AutocorrelationFFT(x []float64, maxLag int) ([]float64, error) {
	if maxLag < 0 || maxLag >= len(x) {
		return nil, fmt.Errorf("dsp: maxLag %d out of range for %d samples", maxLag, len(x))
	}
	n := NextPow2(2 * len(x))
	buf := make([]complex128, n)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	if err := FFT(buf); err != nil {
		return nil, err
	}
	for i, c := range buf {
		buf[i] = complex(real(c)*real(c)+imag(c)*imag(c), 0)
	}
	if err := IFFT(buf); err != nil {
		return nil, err
	}
	r := make([]float64, maxLag+1)
	for k := 0; k <= maxLag; k++ {
		r[k] = real(buf[k])
	}
	return r, nil
}
