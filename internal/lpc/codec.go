// Package lpc implements the paper's application 1: LPC-based acoustic
// data compression. The input signal of L samples is divided into frames of
// size N; per frame, predictor coefficients are generated (FFT →
// autocorrelation → LU solve), the prediction error is computed, and the
// quantized error and coefficients are Huffman coded.
//
// The dataflow graph (paper figure 2) is
//
//	A (read) → B (FFT) → C (LU predictor) → D (error generation) → E (Huffman)
//
// Actor D is the computational hot spot the paper parallelizes across n
// hardware PEs. The codec runs as one SPI system (CodecSystem) on the
// executor, with the serial CompressFrame as its oracle; package lpc also
// provides the deployment models of actor D alone (SPI system, HDL area
// model) the experiments use. Because the frame size and model order are
// not known before run time, the D-side transfers use SPI_dynamic.
package lpc

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/huffman"
	"repro/internal/spi"
)

// Params configures the codec.
type Params struct {
	// FrameSize N is the samples per frame.
	FrameSize int
	// Order M is the LPC model order.
	Order int
	// ErrorBits is the quantizer depth for the prediction error.
	ErrorBits int
	// CoeffBits is the quantizer depth for predictor coefficients.
	CoeffBits int
}

// DefaultParams matches the evaluation regime: frames of a few hundred
// samples, order-10 prediction.
func DefaultParams() Params {
	return Params{FrameSize: 256, Order: 10, ErrorBits: 7, CoeffBits: 12}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.FrameSize <= 0 {
		return fmt.Errorf("lpc: frame size %d", p.FrameSize)
	}
	if p.Order <= 0 || p.Order >= p.FrameSize {
		return fmt.Errorf("lpc: order %d out of range for frame %d", p.Order, p.FrameSize)
	}
	if p.ErrorBits < 2 || p.CoeffBits < 2 {
		return fmt.Errorf("lpc: quantizer bits too small")
	}
	return nil
}

// Frame is one compressed frame.
type Frame struct {
	// N and M record the frame size and order (run-time varying in
	// general — the reason the paper's D transfers use SPI_dynamic).
	N, M int
	// CoeffScale and ErrScale are the quantizer full-scale ranges.
	CoeffScale, ErrScale float64
	// CoeffQ are the quantized predictor coefficients.
	CoeffQ []uint16
	// Lengths is the canonical Huffman code-length table for the error
	// symbols (the decoder rebuilds the codebook from it).
	Lengths []uint8
	// Stream is the Huffman-coded quantized error signal.
	Stream []byte
	// StreamSymbols is the number of coded error samples.
	StreamSymbols int
}

// CompressedBits returns the serialized size of the frame in bits — the
// codec's compression figure, measured on the actual wire format
// (MarshalBinary, with its sparse code-length table).
func (f *Frame) CompressedBits(p Params) int64 {
	data, err := f.MarshalBinary()
	if err != nil {
		// A frame the codec itself produced always marshals; a hand-built
		// inconsistent frame falls back to a conservative dense estimate.
		return int64(len(f.CoeffQ))*16 + int64(len(f.Lengths))*8 + int64(len(f.Stream))*8
	}
	return int64(len(data)) * 8
}

// Codec compresses and decompresses signals.
type Codec struct {
	p Params
}

// NewCodec returns a codec with validated parameters.
func NewCodec(p Params) (*Codec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Codec{p: p}, nil
}

// CompressFrame runs the full actor pipeline on one frame, serially: the
// oracle Run's frames are held to.
func (c *Codec) CompressFrame(frame []float64) (*Frame, error) {
	if len(frame) != c.p.FrameSize {
		return nil, fmt.Errorf("lpc: frame has %d samples, codec expects %d", len(frame), c.p.FrameSize)
	}
	qidx, coeffScale, coeffs, err := c.designStage(frame)
	if err != nil {
		return nil, err
	}
	// Actor D: prediction error with the quantized model.
	errs := (&dsp.LPCModel{Coeffs: coeffs}).Residual(frame)
	return c.entropyStage(qidx, coeffScale, errs)
}

// designStage is actors B + C — spectral analysis and LU-based predictor
// design — and the coefficient quantizer. The decoder must predict with the
// SAME quantized model, so coeffs, the model actor D predicts with, are the
// requantized coefficients.
func (c *Codec) designStage(frame []float64) (qidx []uint16, coeffScale float64, coeffs []float64, err error) {
	model, err := dsp.LPCAnalyze(frame, c.p.Order)
	if err != nil {
		return nil, 0, nil, err
	}
	coeffScale = maxAbs(model.Coeffs)
	if coeffScale == 0 {
		coeffScale = 1
	}
	cq, err := dsp.NewQuantizer(c.p.CoeffBits, coeffScale*1.0001)
	if err != nil {
		return nil, 0, nil, err
	}
	qidx = cq.QuantizeAll(model.Coeffs)
	return qidx, coeffScale, cq.DequantizeAll(qidx), nil
}

// entropyStage is actor E: quantize the error signal, Huffman code it, and
// assemble the compressed frame.
func (c *Codec) entropyStage(qidx []uint16, coeffScale float64, errs []float64) (*Frame, error) {
	errScale := maxAbs(errs)
	if errScale == 0 {
		errScale = 1e-9
	}
	eq, err := dsp.NewQuantizer(c.p.ErrorBits, errScale*1.0001)
	if err != nil {
		return nil, err
	}
	symbols := eq.QuantizeAll(errs)
	freqs := huffman.Histogram(symbols, 1<<uint(c.p.ErrorBits))
	book, err := huffman.Build(freqs)
	if err != nil {
		return nil, err
	}
	var w huffman.BitWriter
	if err := book.Encode(&w, symbols); err != nil {
		return nil, err
	}
	return &Frame{
		N: c.p.FrameSize, M: c.p.Order,
		CoeffScale: coeffScale * 1.0001, ErrScale: errScale * 1.0001,
		CoeffQ:        qidx,
		Lengths:       book.Lengths,
		Stream:        w.Bytes(),
		StreamSymbols: len(symbols),
	}, nil
}

// DecompressFrame inverts CompressFrame up to quantization error.
func (c *Codec) DecompressFrame(f *Frame) ([]float64, error) {
	cq, err := dsp.NewQuantizer(c.p.CoeffBits, f.CoeffScale)
	if err != nil {
		return nil, err
	}
	model := &dsp.LPCModel{Coeffs: cq.DequantizeAll(f.CoeffQ)}
	book, err := huffman.FromLengths(f.Lengths)
	if err != nil {
		return nil, err
	}
	symbols, err := book.Decode(huffman.NewBitReader(f.Stream), f.StreamSymbols)
	if err != nil {
		return nil, err
	}
	eq, err := dsp.NewQuantizer(c.p.ErrorBits, f.ErrScale)
	if err != nil {
		return nil, err
	}
	errs := eq.DequantizeAll(symbols)
	return model.Reconstruct(errs), nil
}

// Compress processes a whole signal frame by frame: Run in this process,
// with actor D on one PE. Trailing partial frames are dropped, as the
// paper's fixed-frame pipeline does.
func (c *Codec) Compress(signal []float64) ([]*Frame, error) {
	frames, _, err := c.Run(signal, 1, spi.DistOptions{Addrs: []string{"in-process"}})
	return frames, err
}

// Decompress inverts Compress.
func (c *Codec) Decompress(frames []*Frame) ([]float64, error) {
	out := make([]float64, 0, len(frames)*c.p.FrameSize)
	for i, f := range frames {
		x, err := c.DecompressFrame(f)
		if err != nil {
			return nil, fmt.Errorf("lpc: frame %d: %w", i, err)
		}
		out = append(out, x...)
	}
	return out, nil
}

// Report summarizes a compression run.
type Report struct {
	Frames         int
	OriginalBits   int64
	CompressedBits int64
	Ratio          float64
	SNRdB          float64
}

// Analyze decompresses frames, the compression of signal, and measures
// their quality: compression ratio against 16-bit PCM and reconstruction
// SNR.
func (c *Codec) Analyze(signal []float64, frames []*Frame) (*Report, error) {
	recon, err := c.Decompress(frames)
	if err != nil {
		return nil, err
	}
	rep := &Report{Frames: len(frames)}
	for _, f := range frames {
		rep.CompressedBits += f.CompressedBits(c.p)
	}
	usable := len(frames) * c.p.FrameSize
	rep.OriginalBits = int64(usable) * 16
	if rep.CompressedBits > 0 {
		rep.Ratio = float64(rep.OriginalBits) / float64(rep.CompressedBits)
	}
	var sig, noise float64
	for i := 0; i < usable; i++ {
		sig += signal[i] * signal[i]
		d := signal[i] - recon[i]
		noise += d * d
	}
	if noise == 0 {
		rep.SNRdB = math.Inf(1)
	} else {
		rep.SNRdB = 10 * math.Log10(sig/noise)
	}
	return rep, nil
}

func maxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
