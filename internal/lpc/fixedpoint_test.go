package lpc

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/fixed"
	"repro/internal/signal"
)

func TestQuantizeModelShift(t *testing.T) {
	m := &dsp.LPCModel{Coeffs: []float64{1.79, -1.21, 0.36}}
	hm := QuantizeModel(m)
	if hm.Shift != 1 {
		t.Errorf("shift = %d, want 1 (max |c| = 1.79 < 2)", hm.Shift)
	}
	factor := math.Pow(2, float64(hm.Shift))
	for i, c := range m.Coeffs {
		if eff := hm.Coeffs[i].Float() * factor; math.Abs(eff-c) > factor/32768 {
			t.Errorf("coeff %d: %v vs %v", i, eff, c)
		}
	}
}

func TestQuantizeModelNoShiftNeeded(t *testing.T) {
	m := &dsp.LPCModel{Coeffs: []float64{0.5, -0.25}}
	if hm := QuantizeModel(m); hm.Shift != 0 {
		t.Errorf("shift = %d, want 0", hm.Shift)
	}
}

func TestHardwareResidualTracksFloat(t *testing.T) {
	x := signal.Speech(512, 13)
	m, err := dsp.LPCAnalyze(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Residual(x)
	got := HardwareResidual(m, x)
	if len(got) != len(want) {
		t.Fatal("length mismatch")
	}
	var maxErr float64
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > maxErr {
			maxErr = d
		}
	}
	// Q15 with a shift of 1-2 gives ~2^-13 coefficient resolution; over
	// 10 taps the residual error stays in the 1e-2 range for unit-scale
	// signals.
	if maxErr > 0.02 {
		t.Errorf("max |hardware - float| = %v, want < 0.02", maxErr)
	}
	if maxErr == 0 {
		t.Error("suspiciously exact: quantization should perturb something")
	}
}

func TestHardwareResidualDeterministic(t *testing.T) {
	x := signal.Speech(128, 3)
	m, _ := dsp.LPCAnalyze(x, 8)
	a := HardwareResidual(m, x)
	b := HardwareResidual(m, x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("bit-true path not deterministic")
		}
	}
}

func TestHardwareResidualSaturates(t *testing.T) {
	// A pathological model that overshoots: the hardware saturates rather
	// than wrapping.
	m := &dsp.LPCModel{Coeffs: []float64{-3.9}}
	frame := []float64{0.9, 0.9}
	got := HardwareResidual(m, frame)
	// Prediction of sample 1 = -3.9*0.9 = -3.51 -> saturates to -1;
	// error = 0.9 - (-1) = 1.9 -> saturates to ~+1.
	if got[1] < 0.99 {
		t.Errorf("saturated error = %v, want ~= +1", got[1])
	}
	// No wraparound artifacts (a wrapped value would be hugely negative).
	for _, v := range got {
		if v < -1 || v > 1 {
			t.Errorf("value %v outside Q15 range", v)
		}
	}
}

func TestHardwareResidualPE(t *testing.T) {
	// The per-PE split of the hardware residual matches the whole-frame
	// hardware residual (same property the float path guarantees).
	x := signal.Speech(300, 23)
	m, _ := dsp.LPCAnalyze(x, 10)
	hm := QuantizeModel(m)
	q := fixed.FromFloats(x)
	full := hm.Residual(q)
	// Simulate 3 PEs with overlapping history, as the FPGA does.
	for _, n := range []int{2, 3} {
		for p := 0; p < n; p++ {
			start := p * len(q) / n
			end := (p + 1) * len(q) / n
			hist := len(hm.Coeffs)
			if start < hist {
				hist = start
			}
			section := q[start-hist : end]
			part := hm.Residual(section)[hist:]
			for i, v := range part {
				if v != full[start+i] {
					t.Fatalf("n=%d PE %d sample %d: %v vs %v", n, p, i, v, full[start+i])
				}
			}
		}
	}
}
