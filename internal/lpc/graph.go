package lpc

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/spi"
)

// Application 1 as one SPI system (figure 2): io_send is actors A, B and C
// — it reads a frame, designs the predictor and quantizes it — and scatters
// the quantized coefficients and overlapping sections to actor D's n PEs;
// io_recv is actor E, which gathers the prediction error and Huffman codes
// it. Frames are independent, so the self-timed schedule pipelines them:
// with io_recv on a processor of its own, the analysis of frame i+1
// overlaps the coding of frame i.

// codecDeploy is the ErrorGenSystem a codec deploys on pes PEs: the codec's
// frame size and order, float64 samples on the wire.
func codecDeploy(p Params, pes int) DeployParams {
	d := DefaultDeploy(p.FrameSize, min(pes, p.FrameSize))
	d.Order, d.SampleBytes = p.Order, 8
	return d
}

// CodecSystem builds the SPI system of the whole codec on pes PEs: the
// ErrorGenSystem of actor D with one more edge, model, that carries the
// coefficient scale and the quantized coefficients from io_send to io_recv,
// and io_recv on a processor of its own (the last one). Actor costs are
// first-order cycle estimates on an FPGA PE: io_send streams N samples (A),
// runs an N log2 N FFT (B) and assembles and LU-solves an M×M system,
// ~2/3 M³ (C); io_recv quantizes and entropy-codes N samples (E).
func CodecSystem(p Params, pes int) (*spi.System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sys, err := ErrorGenSystem(codecDeploy(p, pes))
	if err != nil {
		return nil, err
	}
	g, m := sys.Graph, sys.Mapping
	ioSend, _ := g.ActorByName("io_send")
	ioRecv, _ := g.ActorByName("io_recv")
	n, order := int64(p.FrameSize), int64(p.Order)
	log2n := int64(bits.Len(uint(p.FrameSize - 1)))
	g.Actor(ioSend).ExecCycles = n + 5*n*log2n + 2*order*order*order/3 + 10*order*order
	g.Actor(ioRecv).ExecCycles = 8 * n

	modelBytes := 8 + 2*p.Order
	me := g.AddEdge("model", ioSend, ioRecv, modelBytes, modelBytes,
		dataflow.EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 1})
	sys.PayloadFn[me] = func(int) int { return modelBytes }

	m.Proc[ioRecv] = sched.Processor(m.NumProcs)
	m.Order[0] = []dataflow.ActorID{ioSend}
	m.Order = append(m.Order, []dataflow.ActorID{ioRecv})
	m.NumProcs++
	return sys, nil
}

// Run compresses signal frame by frame on CodecSystem's graph, one frame an
// iteration, and runs this node's share of it with spi.ExecuteDistributed.
// opts.NodeOf defaults to both I/O processors on node 0 and the PEs spread
// over the other nodes (SplitIOWorkers). The node hosting io_recv returns
// the frames, identical to CompressFrame's; other nodes return nil. Every
// node must pass the same signal, pes and block. A trailing partial frame is
// dropped, and a signal without a whole frame runs nothing.
func (c *Codec) Run(signal []float64, pes int, opts spi.DistOptions) ([]*Frame, *spi.ExecStats, error) {
	frames := make([]*Frame, len(signal)/c.p.FrameSize)
	if len(frames) == 0 {
		return frames, nil, nil
	}
	sys, err := CodecSystem(c.p, pes)
	if err != nil {
		return nil, nil, err
	}
	recvProc := sys.Mapping.NumProcs - 1
	if opts.NodeOf == nil {
		opts.NodeOf = append(SplitIOWorkers(recvProc, len(opts.Addrs)), 0)
	}
	kernels, err := c.kernels(sys.Graph, codecDeploy(c.p, pes), signal, frames)
	if err != nil {
		return nil, nil, err
	}
	st, err := spi.ExecuteDistributed(sys.Graph, sys.Mapping, kernels, len(frames), opts)
	if err != nil {
		return nil, nil, err
	}
	if opts.NodeOf[recvProc] != opts.Node {
		frames = nil
	}
	return frames, st, nil
}

// kernels builds the codec's kernel set: io_send designs frame iter's
// predictor (designStage) and scatters it with the sections and the model,
// each pe computes its section's residual, and io_recv gathers the residual
// and codes frame iter into frames (entropyStage).
func (c *Codec) kernels(g *dataflow.Graph, p DeployParams, signal []float64, frames []*Frame) (map[dataflow.ActorID]spi.Kernel, error) {
	kernels := make(map[dataflow.ActorID]spi.Kernel, p.PEs+2)
	d, err := newDSection(g, p, kernels, nil)
	if err != nil {
		return nil, err
	}
	model := g.Out(d.ioSend)[len(g.Out(d.ioSend))-1] // CodecSystem adds it last
	n := c.p.FrameSize
	kernels[d.ioSend] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		frame := signal[iter*n : (iter+1)*n]
		qidx, coeffScale, coeffs, err := c.designStage(frame)
		if err != nil {
			return nil, fmt.Errorf("lpc: frame %d: %w", iter, err)
		}
		out := d.scatter(coeffs, frame)
		out[model] = appendModel(out[model][:0], coeffScale, qidx)
		return out, nil
	}
	kernels[d.ioRecv] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		qidx, coeffScale, err := decodeModel(in[model])
		var errs []float64
		if err == nil {
			errs, err = d.gather(in)
		}
		if err == nil {
			frames[iter], err = c.entropyStage(qidx, coeffScale, errs)
		}
		if err != nil {
			return nil, fmt.Errorf("lpc: frame %d: %w", iter, err)
		}
		return nil, nil
	}
	return kernels, nil
}

// appendModel appends the model edge's payload to dst: the coefficient
// scale as a float64, then the quantized coefficients, 2 bytes each.
func appendModel(dst []byte, coeffScale float64, qidx []uint16) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(coeffScale))
	for _, q := range qidx {
		dst = binary.LittleEndian.AppendUint16(dst, q)
	}
	return dst
}

// decodeModel inverts appendModel into fresh indices, which the frame keeps.
func decodeModel(b []byte) ([]uint16, float64, error) {
	if len(b) < 8 || len(b)%2 != 0 {
		return nil, 0, fmt.Errorf("lpc: model payload of %d bytes", len(b))
	}
	qidx := make([]uint16, (len(b)-8)/2)
	for i := range qidx {
		qidx[i] = binary.LittleEndian.Uint16(b[8+2*i:])
	}
	return qidx, math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}
