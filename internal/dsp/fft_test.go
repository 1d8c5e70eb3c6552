package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	for n, want := range map[int]bool{0: false, 1: true, 2: true, 3: false, 4: true, 1024: true, 1000: false, -4: false} {
		if IsPow2(n) != want {
			t.Errorf("IsPow2(%d) = %v", n, !want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 1024: 1024, 1025: 2048} {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	if err := FFT(make([]complex128, 3)); err == nil {
		t.Error("length 3 should fail")
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("X[%d] = %v, want 1", k, v)
		}
	}
}

func TestFFTSinusoidBin(t *testing.T) {
	// A pure complex exponential at bin 3 concentrates all energy there.
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*3*float64(i)/float64(n)))
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for k, v := range x {
		mag := cmplx.Abs(v)
		if k == 3 {
			if math.Abs(mag-float64(n)) > 1e-9 {
				t.Errorf("bin 3 magnitude %v, want %d", mag, n)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d leaked %v", k, mag)
		}
	}
}

func TestFFTIFFTRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	x := make([]complex128, 256)
	orig := make([]complex128, 256)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
		orig[i] = x[i]
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	if err := IFFT(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
			t.Fatalf("roundtrip diverged at %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// sum |x|^2 == (1/N) sum |X|^2 for random real signals.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 128
		x := make([]complex128, n)
		var timePower float64
		for i := range x {
			v := r.NormFloat64()
			x[i] = complex(v, 0)
			timePower += v * v
		}
		if FFT(x) != nil {
			return false
		}
		var freqPower float64
		for _, c := range x {
			freqPower += real(c)*real(c) + imag(c)*imag(c)
		}
		freqPower /= float64(n)
		return math.Abs(timePower-freqPower) < 1e-8*(1+timePower)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// autocorrelation returns r[0..maxLag] with r[k] = sum_i x[i]*x[i+k],
// computed in the time domain: the oracle AutocorrelationFFT is checked
// against. maxLag must be < len(x).
func autocorrelation(x []float64, maxLag int) ([]float64, error) {
	if maxLag < 0 || maxLag >= len(x) {
		return nil, fmt.Errorf("dsp: maxLag %d out of range for %d samples", maxLag, len(x))
	}
	r := make([]float64, maxLag+1)
	for k := 0; k <= maxLag; k++ {
		var s float64
		for i := 0; i+k < len(x); i++ {
			s += x[i] * x[i+k]
		}
		r[k] = s
	}
	return r, nil
}

func TestAutocorrelationKnown(t *testing.T) {
	x := []float64{1, 2, 3}
	r, err := autocorrelation(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{14, 8, 3}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-12 {
			t.Fatalf("r = %v, want %v", r, want)
		}
	}
}

func TestAutocorrelationBadLag(t *testing.T) {
	if _, err := autocorrelation([]float64{1, 2}, 2); err == nil {
		t.Error("maxLag >= len should fail")
	}
	if _, err := autocorrelation([]float64{1, 2}, -1); err == nil {
		t.Error("negative maxLag should fail")
	}
	if _, err := AutocorrelationFFT([]float64{1, 2}, 5); err == nil {
		t.Error("FFT variant should validate too")
	}
}

func TestAutocorrelationFFTMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(100)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		direct, err := autocorrelation(x, 12)
		if err != nil {
			return false
		}
		viaFFT, err := AutocorrelationFFT(x, 12)
		if err != nil {
			return false
		}
		for k := range direct {
			if math.Abs(direct[k]-viaFFT[k]) > 1e-8*(1+math.Abs(direct[k])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
