package dsp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/signal"
)

func TestLPCAnalyzeRecoversARCoefficients(t *testing.T) {
	// An AR(2) source driven by small noise: the order-2 LPC solution
	// should be close to the true coefficients.
	truth := []float64{1.2, -0.4}
	x := signal.AR(8000, truth, 0.05, 17)
	m, err := LPCAnalyze(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range truth {
		if math.Abs(m.Coeffs[i]-c) > 0.05 {
			t.Errorf("coeff[%d] = %v, want ~%v", i, m.Coeffs[i], c)
		}
	}
}

func TestLPCValidation(t *testing.T) {
	if _, err := LPCAnalyze(make([]float64, 100), 0); err == nil {
		t.Error("order 0 should fail")
	}
	if _, err := LPCAnalyze(make([]float64, 5), 10); err == nil {
		t.Error("short frame should fail")
	}
}

func TestLPCSilentFrameStillSolvable(t *testing.T) {
	// Regularization keeps the all-zero frame from blowing up.
	m, err := LPCAnalyze(make([]float64, 256), 8)
	if err != nil {
		t.Fatalf("silent frame: %v", err)
	}
	for _, c := range m.Coeffs {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("non-finite coefficient %v", c)
		}
	}
}

func TestResidualReconstructRoundtrip(t *testing.T) {
	x := signal.Speech(512, 4)
	m, err := LPCAnalyze(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	e := m.Residual(x)
	y := m.Reconstruct(e)
	for i := range x {
		if math.Abs(x[i]-y[i]) > 1e-9 {
			t.Fatalf("reconstruction diverged at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

// residualByDefinition is the error signal as the model defines it, one
// Predict per sample: the reference the shared loop must equal bit for bit.
func residualByDefinition(m *LPCModel, x []float64, start, end int) []float64 {
	var e []float64
	for i := max(start, 0); i < min(end, len(x)); i++ {
		e = append(e, x[i]-m.Predict(x, i))
	}
	return e
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d = %v, definition gives %v", what, i, got[i], want[i])
		}
	}
}

func TestResidualRangeMatchesFull(t *testing.T) {
	x := signal.Speech(2048, 8)
	m, err := LPCAnalyze(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	full := m.Residual(x)
	sameBits(t, "Residual", full, residualByDefinition(m, x, 0, len(x)))
	// Every split of the frame at three (4 PEs) or six (7 PEs) of a set of
	// cut points that includes sections shorter than the model order: each
	// section must equal its slice of the full residual bit for bit.
	cuts := []int{1, 3, 9, 10, 11, 512, 1024, 1365, 2038, 2047}
	var split func(parts int, from int, bounds []int)
	split = func(parts, from int, bounds []int) {
		if parts == 1 {
			bounds = append(bounds, len(x))
			for p := 0; p+1 < len(bounds); p++ {
				start, end := bounds[p], bounds[p+1]
				sameBits(t, fmt.Sprintf("split %v section %d", bounds, p), m.ResidualInto(nil, x, start, end), full[start:end])
			}
			return
		}
		for c := from; c < len(cuts); c++ {
			split(parts-1, c+1, append(bounds, cuts[c]))
		}
	}
	for _, n := range []int{4, 7} {
		split(n, 0, []int{0})
		// The deployment's own split, PE p computing [p*N/n, (p+1)*N/n).
		for p := 0; p < n; p++ {
			start, end := p*len(x)/n, (p+1)*len(x)/n
			sameBits(t, fmt.Sprintf("%d PEs, PE %d", n, p), m.ResidualInto(nil, x, start, end), full[start:end])
		}
	}
}

// TestResidualIntoMatchesDefinition: the shared loop equals the Predict-based
// definition bit for bit over orders 1-32, frame lengths 1-4096 and random
// ranges, including ones that start inside the first Order samples, reach past
// the frame, or are empty — and it appends, leaving dst's prefix alone.
func TestResidualIntoMatchesDefinition(t *testing.T) {
	rng := signal.NewRNG(17)
	for trial := 0; trial < 400; trial++ {
		order := 1 + rng.Intn(32)
		n := 1 + rng.Intn(4096)
		if trial%4 == 0 {
			n = 1 + rng.Intn(2*order) // frames around and below the order
		}
		m := &LPCModel{Coeffs: make([]float64, order)}
		for k := range m.Coeffs {
			m.Coeffs[k] = rng.NormFloat64() / float64(order)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		sameBits(t, "Residual", m.Residual(x), residualByDefinition(m, x, 0, n))
		for r := 0; r < 8; r++ {
			start := rng.Intn(n+order+2) - order/2 - 1
			end := start + rng.Intn(n+order) - order/2
			if r == 0 {
				start = rng.Intn(min(order, n)) // inside the prologue
			}
			prefix := []float64{7, 8, 9}
			got := m.ResidualInto(prefix, x, start, end)
			what := fmt.Sprintf("order %d, %d samples, [%d, %d)", order, n, start, end)
			sameBits(t, what+" prefix", got[:3], prefix)
			sameBits(t, what, got[3:], residualByDefinition(m, x, start, end))
			sameBits(t, what+" (nil dst)", m.ResidualInto(nil, x, start, end), got[3:])
		}
	}
}

func TestResidualRangeClamps(t *testing.T) {
	x := []float64{1, 2, 3}
	m := &LPCModel{Coeffs: []float64{0.5}}
	if got := m.ResidualInto(nil, x, -5, 100); len(got) != 3 {
		t.Errorf("clamped range length %d, want 3", len(got))
	}
	if got := m.ResidualInto(nil, x, 2, 1); got != nil {
		t.Errorf("empty range should be nil, got %v", got)
	}
}

func TestQuantizerValidation(t *testing.T) {
	if _, err := NewQuantizer(1, 1); err == nil {
		t.Error("1 bit should fail")
	}
	if _, err := NewQuantizer(17, 1); err == nil {
		t.Error("17 bits should fail")
	}
	if _, err := NewQuantizer(8, 0); err == nil {
		t.Error("zero range should fail")
	}
}

func TestQuantizerRoundtripAccuracy(t *testing.T) {
	q, err := NewQuantizer(10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	step := 2.0 / 1024
	for _, v := range []float64{0, 0.5, -0.5, 0.999, -0.999, 0.123456} {
		got := q.Dequantize(q.Quantize(v))
		if math.Abs(got-v) > step {
			t.Errorf("roundtrip %v -> %v, error > step %v", v, got, step)
		}
	}
}

func TestQuantizerClips(t *testing.T) {
	q, _ := NewQuantizer(8, 1.0)
	hi := q.Quantize(100)
	lo := q.Quantize(-100)
	if hi != 255 || lo != 0 {
		t.Errorf("clipping: hi=%d lo=%d, want 255/0", hi, lo)
	}
}

func TestQuantizeAllRoundtripProperty(t *testing.T) {
	q, _ := NewQuantizer(12, 2.0)
	f := func(vals []float64) bool {
		// clamp inputs into range
		in := make([]float64, len(vals))
		for i, v := range vals {
			in[i] = math.Mod(v, 2.0)
			if math.IsNaN(in[i]) {
				in[i] = 0
			}
		}
		idx := q.QuantizeAll(in)
		out := q.DequantizeAll(idx)
		for i := range in {
			if math.Abs(out[i]-in[i]) > 4.0/4096+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkResidualInto times actor D's loop on one 256-sample frame of an
// order-10 model, the shape every LPC workload runs.
func BenchmarkResidualInto(b *testing.B) {
	x := signal.Speech(256, 1)
	m, err := LPCAnalyze(x, 10)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, 0, len(x))
	b.SetBytes(int64(8 * len(x)))
	for i := 0; i < b.N; i++ {
		dst = m.ResidualInto(dst[:0], x, 0, len(x))
	}
}
