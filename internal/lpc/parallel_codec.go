package lpc

import (
	"repro/internal/dsp"
	"repro/internal/spi"
)

// CompressFrameParallel is CompressFrame with actor D distributed across
// nPE SPI-connected workers, as the paper's co-design implementation does:
// the n-PE deployment of DistributedResidual, on one node in this process.
// The output is bit-identical to the serial codec: the residual split is
// exact (workers receive the overlapping history they need), and every
// other stage is unchanged.
func (c *Codec) CompressFrameParallel(frame []float64, nPE int) (*Frame, *spi.ExecStats, error) {
	if len(frame) != c.p.FrameSize {
		return nil, nil, errFrameSize(c, len(frame))
	}
	model, err := dsp.LPCAnalyze(frame, c.p.Order)
	if err != nil {
		return nil, nil, err
	}
	coeffScale := maxAbs(model.Coeffs)
	if coeffScale == 0 {
		coeffScale = 1
	}
	cq, err := dsp.NewQuantizer(c.p.CoeffBits, coeffScale*1.0001)
	if err != nil {
		return nil, nil, err
	}
	qidx := cq.QuantizeAll(model.Coeffs)
	qmodel := &dsp.LPCModel{Coeffs: cq.DequantizeAll(qidx)}

	// Actor D over SPI workers.
	errs, stats, err := DistributedResidual(qmodel, frame, nPE, 1, spi.DistOptions{Addrs: []string{"in-process"}})
	if err != nil {
		return nil, nil, err
	}
	f, err := c.entropyStage(qidx, coeffScale, errs)
	if err != nil {
		return nil, nil, err
	}
	return f, stats, nil
}
