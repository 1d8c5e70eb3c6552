package lpc

import (
	"math"

	"repro/internal/dsp"
	"repro/internal/fixed"
)

// Bit-true model of the hardware error generator. The FPGA PEs of the
// paper's application 1 compute the prediction error in 16-bit fixed point:
// samples are Q15, predictor coefficients are scaled into Q15 with a power-
// of-two shift (coefficients routinely exceed 1.0 in magnitude), the tap
// products accumulate in a wide register, and the error is produced with
// rounding and saturation. HardwareResidual reproduces those semantics
// exactly, so software results can be compared bit-for-bit against what
// the hardware PEs would emit.

// HardwareModelQ15 is the fixed-point form of an LPC predictor: Q15
// coefficients plus the power-of-two scale shift.
type HardwareModelQ15 struct {
	Coeffs []fixed.Q15
	// Shift is the left shift applied after accumulation: the true
	// coefficient is Coeffs[k].Float() * 2^Shift.
	Shift uint
}

// QuantizeModel converts a floating-point predictor into the hardware's
// Q15 representation.
func QuantizeModel(m *dsp.LPCModel) *HardwareModelQ15 {
	var maxAbs float64
	for _, c := range m.Coeffs {
		if a := math.Abs(c); a > maxAbs {
			maxAbs = a
		}
	}
	shift := uint(0)
	for maxAbs >= 1.0 && shift < 15 {
		maxAbs /= 2
		shift++
	}
	q := &HardwareModelQ15{Shift: shift}
	scale := math.Pow(2, -float64(shift))
	for _, c := range m.Coeffs {
		q.Coeffs = append(q.Coeffs, fixed.FromFloat(c*scale))
	}
	return q
}

// Residual computes the prediction error of the Q15 frame exactly as the
// hardware datapath does: per sample, a wide MAC over the taps, a left
// shift compensating the coefficient scaling, rounding, saturation, and a
// saturating subtract from the input sample.
func (h *HardwareModelQ15) Residual(frame []fixed.Q15) []fixed.Q15 {
	out := make([]fixed.Q15, len(frame))
	for i := range frame {
		var acc fixed.Acc
		for k, c := range h.Coeffs {
			j := i - 1 - k
			if j >= 0 {
				acc = acc.MAC(c, frame[j])
			}
		}
		// Compensate the coefficient scale: the accumulator holds
		// prediction / 2^Shift in Q30.
		pred := fixed.Acc(int64(acc) << h.Shift).Q15()
		out[i] = fixed.Sub(frame[i], pred)
	}
	return out
}

// HardwareResidual runs the full bit-true path on a floating-point frame:
// quantize samples and model to Q15, compute the hardware residual, and
// return it as floats. The companion float-domain reference for accuracy
// comparisons is dsp.LPCModel.Residual.
func HardwareResidual(m *dsp.LPCModel, frame []float64) []float64 {
	hm := QuantizeModel(m)
	q := fixed.FromFloats(frame)
	return fixed.ToFloats(hm.Residual(q))
}
