// Package fixed implements Q15 fixed-point arithmetic — the number format
// of the paper's FPGA datapaths. The hardware PEs compute the LPC
// prediction error with 16-bit fixed-point MACs, so a bit-true software
// model needs saturating Q15 operations: values in [-1, 1) with 15
// fractional bits, a widened Q2.30 accumulator for multiply-accumulate
// chains, and saturation (not wraparound) on overflow, as DSP datapaths
// implement.
package fixed

import "math"

// Q15 is a signed fixed-point value with 15 fractional bits: the integer n
// represents n / 32768, covering [-1, 1 - 2^-15].
type Q15 int16

// One is the largest representable Q15 value (just below +1.0).
const One Q15 = math.MaxInt16

// MinusOne is the most negative Q15 value (-1.0 exactly).
const MinusOne Q15 = math.MinInt16

const scale = 1 << 15

// FromFloat converts with round-to-nearest and saturation.
func FromFloat(f float64) Q15 {
	v := math.Round(f * scale)
	if v >= math.MaxInt16 {
		return One
	}
	if v <= math.MinInt16 {
		return MinusOne
	}
	return Q15(v)
}

// Float converts back to float64.
func (q Q15) Float() float64 { return float64(q) / scale }

// sat32 saturates a 32-bit intermediate to Q15.
func sat32(v int32) Q15 {
	if v > math.MaxInt16 {
		return One
	}
	if v < math.MinInt16 {
		return MinusOne
	}
	return Q15(v)
}

// Sub returns a-b with saturation.
func Sub(a, b Q15) Q15 { return sat32(int32(a) - int32(b)) }

// Acc is a Q17.30 multiply-accumulate register (64-bit in software, wide
// accumulator in hardware): products accumulate at full Q30 precision and
// saturate only on the final conversion, matching DSP48 usage.
type Acc int64

// MAC accumulates a*b (Q30) into the register.
func (a Acc) MAC(x, y Q15) Acc {
	return a + Acc(int64(x)*int64(y))
}

// Q15 converts the accumulator to Q15 with rounding and saturation.
func (a Acc) Q15() Q15 {
	v := int64(a) + (1 << 14)
	v >>= 15
	if v > math.MaxInt16 {
		return One
	}
	if v < math.MinInt16 {
		return MinusOne
	}
	return Q15(v)
}

// FromFloats converts a slice.
func FromFloats(f []float64) []Q15 {
	out := make([]Q15, len(f))
	for i, v := range f {
		out[i] = FromFloat(v)
	}
	return out
}

// ToFloats converts a slice back.
func ToFloats(q []Q15) []float64 {
	out := make([]float64, len(q))
	for i, v := range q {
		out[i] = v.Float()
	}
	return out
}
