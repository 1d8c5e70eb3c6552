package dsp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/signal"
)

// Levinson-Durbin recursion: the O(M^2) solver for the Toeplitz normal
// equations that LPC analysis produces. The paper's actor C uses a general
// LU decomposition (O(M^3)) — a natural choice when the FPGA datapath
// already provides an LU engine — and Levinson-Durbin, the classic
// software alternative, is the independent oracle these tests check it
// against: both produce the same predictor for a positive-definite
// autocorrelation sequence.

// levinsonDurbin solves the order-m normal equations R a = r from
// autocorrelation values r[0..m] and returns the predictor coefficients
// plus the final prediction-error power. It fails if the recursion
// encounters a non-positive error power (non-positive-definite input).
func levinsonDurbin(r []float64, m int) (coeffs []float64, errPower float64, err error) {
	if m <= 0 {
		return nil, 0, fmt.Errorf("dsp: Levinson order %d", m)
	}
	if len(r) < m+1 {
		return nil, 0, fmt.Errorf("dsp: need %d autocorrelation lags, have %d", m+1, len(r))
	}
	if r[0] <= 0 {
		return nil, 0, fmt.Errorf("dsp: non-positive zero-lag autocorrelation %v", r[0])
	}
	a := make([]float64, m+1) // a[0] unused; predictor x[i] ~= sum a[k] x[i-k]
	e := r[0]
	for i := 1; i <= m; i++ {
		acc := r[i]
		for k := 1; k < i; k++ {
			acc -= a[k] * r[i-k]
		}
		if e <= 0 {
			return nil, 0, fmt.Errorf("dsp: Levinson error power %v at order %d (not positive definite)", e, i)
		}
		k := acc / e
		// Update coefficients: a'_j = a_j - k*a_{i-j}.
		prev := make([]float64, i)
		copy(prev, a[1:i])
		a[i] = k
		for j := 1; j < i; j++ {
			a[j] = prev[j-1] - k*prev[i-1-j]
		}
		e *= 1 - k*k
	}
	if math.IsNaN(e) || math.IsInf(e, 0) {
		return nil, 0, fmt.Errorf("dsp: Levinson diverged")
	}
	return a[1 : m+1], e, nil
}

// lpcAnalyzeLevinson is LPCAnalyze with the Levinson-Durbin solver in place
// of LU decomposition. For well-conditioned frames the two produce the same
// model (the normal equations have a unique solution); Levinson is O(M^2)
// and additionally yields the reflection coefficients implicitly.
func lpcAnalyzeLevinson(frame []float64, m int) (*LPCModel, error) {
	if m <= 0 {
		return nil, fmt.Errorf("dsp: LPC order %d", m)
	}
	if len(frame) <= m {
		return nil, fmt.Errorf("dsp: frame of %d samples too short for order %d", len(frame), m)
	}
	r, err := AutocorrelationFFT(frame, m)
	if err != nil {
		return nil, err
	}
	r[0] = r[0]*(1+1e-6) + 1e-12
	coeffs, _, err := levinsonDurbin(r, m)
	if err != nil {
		return nil, err
	}
	return &LPCModel{Coeffs: coeffs}, nil
}

func TestLevinsonValidation(t *testing.T) {
	if _, _, err := levinsonDurbin([]float64{1, 0.5}, 0); err == nil {
		t.Error("order 0 should fail")
	}
	if _, _, err := levinsonDurbin([]float64{1}, 2); err == nil {
		t.Error("too few lags should fail")
	}
	if _, _, err := levinsonDurbin([]float64{0, 0.5, 0.2}, 2); err == nil {
		t.Error("non-positive r[0] should fail")
	}
	if _, err := lpcAnalyzeLevinson(make([]float64, 4), 10); err == nil {
		t.Error("short frame should fail")
	}
	if _, err := lpcAnalyzeLevinson(make([]float64, 100), 0); err == nil {
		t.Error("order 0 should fail")
	}
}

func TestLevinsonKnownAR1(t *testing.T) {
	// AR(1) with coefficient a: r[k] = a^k * r[0]. Levinson must recover a
	// exactly with zero residual gain loss... up to the recursion's algebra.
	a := 0.8
	r := []float64{1, a, a * a, a * a * a}
	coeffs, e, err := levinsonDurbin(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coeffs[0]-a) > 1e-12 {
		t.Errorf("coeffs[0] = %v, want %v", coeffs[0], a)
	}
	for k := 1; k < 3; k++ {
		if math.Abs(coeffs[k]) > 1e-12 {
			t.Errorf("coeffs[%d] = %v, want 0 (AR(1) source)", k, coeffs[k])
		}
	}
	if want := 1 - a*a; math.Abs(e-want) > 1e-12 {
		t.Errorf("error power = %v, want %v", e, want)
	}
}

func TestLevinsonMatchesLU(t *testing.T) {
	// Both solvers target the same normal equations; on a well-conditioned
	// speech frame they must agree.
	x := signal.Speech(1024, 33)
	lu, err := LPCAnalyze(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	lev, err := lpcAnalyzeLevinson(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	for k := range lu.Coeffs {
		if math.Abs(lu.Coeffs[k]-lev.Coeffs[k]) > 1e-8 {
			t.Errorf("coeff %d: LU %v vs Levinson %v", k, lu.Coeffs[k], lev.Coeffs[k])
		}
	}
}

func TestLevinsonMatchesLUProperty(t *testing.T) {
	f := func(seed uint64) bool {
		x := signal.Speech(512, seed)
		lu, err := LPCAnalyze(x, 8)
		if err != nil {
			return false
		}
		lev, err := lpcAnalyzeLevinson(x, 8)
		if err != nil {
			return false
		}
		for k := range lu.Coeffs {
			if math.Abs(lu.Coeffs[k]-lev.Coeffs[k]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLevinsonErrorPowerDecreasesWithOrder(t *testing.T) {
	x := signal.Speech(2048, 9)
	r, err := AutocorrelationFFT(x, 16)
	if err != nil {
		t.Fatal(err)
	}
	r[0] = r[0]*(1+1e-6) + 1e-12
	var prev float64 = math.Inf(1)
	for m := 1; m <= 16; m++ {
		_, e, err := levinsonDurbin(r, m)
		if err != nil {
			t.Fatal(err)
		}
		if e > prev+1e-12 {
			t.Fatalf("error power rose at order %d: %v -> %v", m, prev, e)
		}
		prev = e
	}
}

func BenchmarkLUvsLevinson(b *testing.B) {
	x := signal.Speech(512, 3)
	for _, m := range []int{10, 32} {
		b.Run("lu/m="+string(rune('0'+m/10))+string(rune('0'+m%10)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := LPCAnalyze(x, m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("levinson/m="+string(rune('0'+m/10))+string(rune('0'+m%10)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lpcAnalyzeLevinson(x, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
