package dsp

import (
	"fmt"
	"math"
	"slices"
)

// LPCModel holds an order-M linear predictor: the prediction of sample i is
// sum_k Coeffs[k] * x[i-1-k].
type LPCModel struct {
	// Coeffs are the predictor coefficients a[0..M-1].
	Coeffs []float64
}

// Order returns the model order M.
func (m *LPCModel) Order() int { return len(m.Coeffs) }

// LPCAnalyze computes order-m predictor coefficients for the frame by
// solving the autocorrelation normal equations R a = r with LU
// decomposition — the actor-C pipeline of application 1 (autocorrelation
// from the FFT-derived power spectrum, Toeplitz assembly, LU solve).
//
// A small diagonal regularization keeps near-silent frames solvable.
func LPCAnalyze(frame []float64, m int) (*LPCModel, error) {
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
	// Regularize: white-noise floor at -60 dB of the frame energy, plus an
	// absolute epsilon for all-zero frames.
	r[0] = r[0]*(1+1e-6) + 1e-12
	a, err := ToeplitzFromAutocorrelation(r, m)
	if err != nil {
		return nil, err
	}
	rhs := make([]float64, m)
	copy(rhs, r[1:m+1])
	coeffs, err := SolveSystem(a, rhs)
	if err != nil {
		return nil, err
	}
	return &LPCModel{Coeffs: coeffs}, nil
}

// Predict returns the predicted value of x[i] given history x[:i].
func (m *LPCModel) Predict(x []float64, i int) float64 {
	var p float64
	for k, c := range m.Coeffs {
		j := i - 1 - k
		if j >= 0 {
			p += c * x[j]
		}
	}
	return p
}

// ResidualInto appends the prediction error e[i] = x[i] - Predict(x, i) for
// the samples [start, end) to dst and returns the extended slice; the range
// is clamped to x, and x must not overlap dst's spare capacity. It is the
// one error-generation loop — Residual, ResidualRange and the PE kernels of
// internal/lpc all run it — and it allocates only when dst lacks the room.
//
// Each tap sum is accumulated exactly as Predict does it (k = 0..M-1 into
// one accumulator, a sample before the frame contributing nothing), so the
// result is bit-identical to the definition whatever the split: the serial
// reference and every PE round alike.
func (m *LPCModel) ResidualInto(dst, x []float64, start, end int) []float64 {
	start, end = max(start, 0), min(end, len(x))
	if end <= start {
		return dst
	}
	c := m.Coeffs
	base := len(dst)
	dst = slices.Grow(dst, end-start)[:base+end-start]
	e := dst[base:]
	i := start
	// The first M samples see a shorter history: taps 0..i-1 only.
	for ; i < end && i < len(c); i++ {
		var p float64
		for k, ck := range c[:i] {
			p += ck * x[i-1-k]
		}
		e[i-start] = x[i] - p
	}
	// Steady state, four samples at a time: sample i+j has the full window
	// x[i+j-M : i+j], so the four windows are w = x[i-M : i+3] seen through
	// offsets 0..3, and the taps walk w from its newest samples down. Each
	// sample keeps its own accumulator and Predict's tap order, so every sum
	// is the same sequence of operations as in the one-sample loop below;
	// what changes is that four independent chains are in flight per tap.
	// That makes the loop wait on arithmetic, not on instruction fetch: the
	// one-sample loop is so short that its speed depended on where the
	// linker put it (a third slower starting on a 64-byte boundary than 32
	// bytes past one). The window never runs out before the taps do; the
	// guards say so in the form the compiler trades its bounds checks for.
	for ; i+4 <= end; i += 4 {
		w := x[i-len(c) : i+3]
		var p0, p1, p2, p3 float64
		for _, ck := range c {
			n := len(w)
			if n < 4 {
				break
			}
			p3 += ck * w[n-1]
			p2 += ck * w[n-2]
			p1 += ck * w[n-3]
			p0 += ck * w[n-4]
			w = w[:n-1]
		}
		o := e[i-start : i-start+4]
		o[0], o[1], o[2], o[3] = x[i]-p0, x[i+1]-p1, x[i+2]-p2, x[i+3]-p3
	}
	for ; i < end; i++ {
		w := x[i-len(c) : i]
		var p float64
		for _, ck := range c {
			if len(w) == 0 {
				break
			}
			p += ck * w[len(w)-1]
			w = w[:len(w)-1]
		}
		e[i-start] = x[i] - p
	}
	return dst
}

// Residual returns the prediction-error signal e[i] = x[i] - predict(i)
// over the whole frame — the work of application 1's actor D, the actor
// the paper parallelizes across PEs.
func (m *LPCModel) Residual(x []float64) []float64 {
	return m.ResidualInto(make([]float64, 0, len(x)), x, 0, len(x))
}

// ResidualRange computes the prediction error only for samples
// [start, end), given the full frame for history — the per-PE slice of
// actor D: each PE receives the (overlapping) section of the frame it
// needs plus the coefficients, and produces its share of error values.
// An empty range yields nil.
func (m *LPCModel) ResidualRange(x []float64, start, end int) []float64 {
	return m.ResidualInto(nil, x, start, end)
}

// Reconstruct inverts Residual: given the error signal and the model,
// rebuild the original samples exactly (up to floating-point roundoff).
func (m *LPCModel) Reconstruct(e []float64) []float64 {
	x := make([]float64, len(e))
	for i := range e {
		x[i] = e[i] + m.Predict(x, i)
	}
	return x
}

// PredictionGain returns the ratio of signal power to residual power in
// decibels — the standard figure of merit for LPC: higher is better
// compression potential.
func PredictionGain(x, e []float64) float64 {
	var sx, se float64
	for i := range x {
		sx += x[i] * x[i]
	}
	for i := range e {
		se += e[i] * e[i]
	}
	if se == 0 {
		return math.Inf(1)
	}
	if sx == 0 {
		return 0
	}
	return 10 * math.Log10(sx/se)
}

// Quantizer is a uniform midtread scalar quantizer over [-Range, +Range]
// with 2^Bits levels, used to quantize the prediction error before entropy
// coding.
type Quantizer struct {
	Bits  int
	Range float64
	step  float64
	half  int32
}

// NewQuantizer returns a quantizer with the given bit depth and full-scale
// range. Bits must be in [2, 16].
func NewQuantizer(bits int, rng float64) (*Quantizer, error) {
	if bits < 2 || bits > 16 {
		return nil, fmt.Errorf("dsp: quantizer bits %d out of [2,16]", bits)
	}
	if rng <= 0 {
		return nil, fmt.Errorf("dsp: quantizer range %v", rng)
	}
	levels := int32(1) << uint(bits)
	return &Quantizer{
		Bits:  bits,
		Range: rng,
		step:  2 * rng / float64(levels),
		half:  levels / 2,
	}, nil
}

// Quantize maps a sample to its level index in [0, 2^Bits). Out-of-range
// samples clip.
func (q *Quantizer) Quantize(v float64) uint16 {
	idx := int32(math.Round(v/q.step)) + q.half
	if idx < 0 {
		idx = 0
	}
	if idx >= 2*q.half {
		idx = 2*q.half - 1
	}
	return uint16(idx)
}

// Dequantize maps a level index back to its reconstruction value.
func (q *Quantizer) Dequantize(idx uint16) float64 {
	return float64(int32(idx)-q.half) * q.step
}

// QuantizeAll quantizes a slice.
func (q *Quantizer) QuantizeAll(x []float64) []uint16 {
	out := make([]uint16, len(x))
	for i, v := range x {
		out[i] = q.Quantize(v)
	}
	return out
}

// DequantizeAll reconstructs a slice.
func (q *Quantizer) DequantizeAll(idx []uint16) []float64 {
	out := make([]float64, len(idx))
	for i, v := range idx {
		out[i] = q.Dequantize(v)
	}
	return out
}
