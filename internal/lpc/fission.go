package lpc

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/dsp"
	"repro/internal/sched"
	"repro/internal/spi"
)

// Automatic fission of actor D: where deploy.go hand-builds the paper's
// n-PE error-generation system, this file starts from the SERIAL pipeline
// (io_send -> error_gen -> io_recv) and lets dataflow.Fission derive the
// data-parallel deployment — k replicas behind scatter/gather stages — so
// the LPC residual workload exercises the rewrite end to end. The frame
// and coefficients are broadcast (each replica's range needs up to Order
// samples of history from before its split point, and the full frame is
// the simplest superset), while the error stream is split on float64
// tokens: replica r computes ResidualRange over its dataflow.SplitCounts
// share, so the gather's concatenation is bit-identical to the serial
// Residual — uneven tails included.

// SerialErrorGenSystem builds the unfissioned actor-D pipeline: the I/O
// interface scatters nothing — one worker actor receives the predictor
// coefficients and the whole frame and returns the whole error signal.
// Feed it to dataflow.Fission to derive the parallel deployments.
func SerialErrorGenSystem(p DeployParams) (*spi.System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := dataflow.New(fmt.Sprintf("actorD-serial-N%d", p.SampleSize))
	ioSend := g.AddActor("io_send", int64(p.SampleSize)+100)
	d := g.AddActor("error_gen", int64(p.SampleSize)*int64(p.Order)*p.MACCyclesPerTap+50)
	ioRecv := g.AddActor("io_recv", 50)

	coeffBytes := p.Order * p.SampleBytes
	frameBytes := p.SampleSize * p.SampleBytes
	dyn := func(tokenBytes int) dataflow.EdgeSpec {
		return dataflow.EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: tokenBytes}
	}
	ce := g.AddEdge("coeffs", ioSend, d, coeffBytes, coeffBytes, dyn(1))
	fe := g.AddEdge("frame", ioSend, d, frameBytes, frameBytes, dyn(p.SampleBytes))
	ee := g.AddEdge("errs", d, ioRecv, frameBytes, frameBytes, dyn(p.SampleBytes))

	m := &sched.Mapping{
		NumProcs: 2,
		Proc:     make([]sched.Processor, g.NumActors()),
		Order:    make([][]dataflow.ActorID, 2),
	}
	m.Proc[ioSend], m.Proc[ioRecv] = 0, 0
	m.Proc[d] = 1
	m.Order[0] = []dataflow.ActorID{ioSend, ioRecv}
	m.Order[1] = []dataflow.ActorID{d}
	return &spi.System{
		Graph: g, Mapping: m,
		PayloadFn: map[dataflow.EdgeID]func(int) int{
			ce: func(int) int { return coeffBytes },
			fe: func(int) int { return frameBytes },
			ee: func(int) int { return frameBytes },
		},
	}, nil
}

// FissionSystem is a fissioned serial error-generation deployment: the
// rewritten graph with its extended mapping, ready for any executor.
type FissionSystem struct {
	Plan    *dataflow.FissionPlan
	Mapping *sched.Mapping
	Params  DeployParams
}

// FissionErrorGenSystem derives the k-replica deployment of the serial
// pipeline via the fission pass. k = 0 lets the pass choose replica count
// and block factor jointly under memBound (0 = unbounded).
func FissionErrorGenSystem(p DeployParams, k int, memBound int64) (*FissionSystem, error) {
	sys, err := SerialErrorGenSystem(p)
	if err != nil {
		return nil, err
	}
	d, ok := sys.Graph.ActorByName("error_gen")
	if !ok {
		return nil, fmt.Errorf("lpc: serial system has no error_gen actor")
	}
	plan, err := dataflow.Fission(sys.Graph, d, dataflow.FissionOptions{K: k, MemBound: memBound})
	if err != nil {
		return nil, err
	}
	fm, err := sched.ExtendFission(sys.Mapping, plan)
	if err != nil {
		return nil, err
	}
	return &FissionSystem{Plan: plan, Mapping: fm, Params: p}, nil
}

// serialResidualKernels builds the functional kernels of the serial
// pipeline. The worker computes the full-frame residual; collect observes
// each assembled frame on the node hosting io_recv (in the actor's assembly
// buffer, overwritten by the next frame). As in residualKernels, every
// buffer is sized here, from the frame and the model, and reused.
func serialResidualKernels(g *dataflow.Graph, model *dsp.LPCModel, frame []float64, collect func([]float64)) (map[dataflow.ActorID]spi.Kernel, error) {
	ids, err := serialEdgeIDs(g)
	if err != nil {
		return nil, err
	}
	ioSend, _ := g.ActorByName("io_send")
	d, _ := g.ActorByName("error_gen")
	ioRecv, _ := g.ActorByName("io_recv")
	order, n := model.Order(), len(frame)
	sent := map[dataflow.EdgeID][]byte{
		ids.coeffs: make([]byte, 0, 8*order),
		ids.frame:  make([]byte, 0, 8*n),
	}
	gen, out := newErrorGen(nil, order, n, n), make(map[dataflow.EdgeID][]byte, 1)
	assembled := make([]float64, 0, n)
	return map[dataflow.ActorID]spi.Kernel{
		ioSend: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			sent[ids.coeffs] = appendFloats(sent[ids.coeffs][:0], model.Coeffs)
			sent[ids.frame] = appendFloats(sent[ids.frame][:0], frame)
			return sent, nil
		},
		d: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			errs, err := gen.fire(in[ids.coeffs], in[ids.frame], 0, n)
			out[ids.errs] = errs
			return out, err
		},
		ioRecv: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			var err error
			if assembled, err = appendDecoded(assembled[:0], in[ids.errs]); err != nil {
				return nil, err
			}
			collect(assembled)
			return nil, nil
		},
	}, nil
}

type serialEdges struct {
	coeffs, frame, errs dataflow.EdgeID
}

func serialEdgeIDs(g *dataflow.Graph) (serialEdges, error) {
	var ids serialEdges
	found := 0
	for _, eid := range g.Edges() {
		switch g.Edge(eid).Name {
		case "coeffs":
			ids.coeffs, found = eid, found+1
		case "frame":
			ids.frame, found = eid, found+1
		case "errs":
			ids.errs, found = eid, found+1
		}
	}
	if found != 3 {
		return ids, fmt.Errorf("lpc: serial graph lacks coeffs/frame/errs edges")
	}
	return ids, nil
}

// fissionResidualKernels builds the kernel set of a fissioned deployment:
// the serial kernels plus a FissionWorker in which replica r computes
// ResidualRange over its SplitCounts share of the frame — 1/k of the
// multiply-accumulate work, against the broadcast frame for history.
func fissionResidualKernels(fs *FissionSystem, model *dsp.LPCModel, frame []float64, collect func([]float64)) (map[dataflow.ActorID]spi.Kernel, error) {
	src := fs.Plan.Source
	serial, err := serialResidualKernels(src, model, frame, collect)
	if err != nil {
		return nil, err
	}
	ids, err := serialEdgeIDs(src)
	if err != nil {
		return nil, err
	}
	// The one worker closure serves k replicas firing concurrently on their
	// own processors, so each replica has its own body, scratch and output
	// map, and its share of the frame is fixed here, not per firing.
	type replica struct {
		gen        *errorGen
		out        map[dataflow.EdgeID][]byte
		start, end int
	}
	replicas := make([]replica, fs.Plan.K)
	start := 0
	for r, count := range dataflow.SplitCounts(len(frame), fs.Plan.K) {
		replicas[r] = replica{newErrorGen(nil, model.Order(), len(frame), count),
			make(map[dataflow.EdgeID][]byte, 1), start, start + count}
		start += count
	}
	worker := func(iter, r int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		rep := &replicas[r]
		if len(in[ids.frame]) != 8*len(frame) {
			return nil, fmt.Errorf("lpc: replica %d received a frame of %d bytes, its split is of %d samples", r, len(in[ids.frame]), len(frame))
		}
		errs, err := rep.gen.fire(in[ids.coeffs], in[ids.frame], rep.start, rep.end)
		rep.out[ids.errs] = errs
		return rep.out, err
	}
	return spi.FissionKernels(fs.Plan, serial, worker)
}

// SerialResidual runs this node's share of the UNfissioned serial pipeline
// distributed over opts.Addrs — the baseline the fissioned deployment is
// benchmarked against. The node hosting io_recv returns the last frame's
// residual.
func SerialResidual(model *dsp.LPCModel, frame []float64, iters int, opts spi.DistOptions) ([]float64, *spi.ExecStats, error) {
	p := DefaultDeploy(len(frame), 1)
	p.SampleBytes = 8
	sys, err := SerialErrorGenSystem(p)
	if err != nil {
		return nil, nil, err
	}
	if opts.NodeOf == nil {
		opts.NodeOf = SplitIOWorkers(sys.Mapping.NumProcs, len(opts.Addrs))
	}
	var result []float64
	kernels, err := serialResidualKernels(sys.Graph, model, frame, func(e []float64) { result = e })
	if err != nil {
		return nil, nil, err
	}
	st, err := spi.ExecuteDistributed(sys.Graph, sys.Mapping, kernels, iters, opts)
	if err != nil {
		return nil, nil, err
	}
	return result, st, nil
}

// FissionResidual fissions the serial pipeline into k replicas and runs
// this node's share distributed over opts.Addrs. opts.NodeOf defaults to
// SplitIOWorkers over the extended mapping (I/O on node 0, scatter/gather
// and replicas spread over the rest). The node hosting io_recv returns the
// last frame's residual — bit-identical to the serial pipeline's.
func FissionResidual(model *dsp.LPCModel, frame []float64, k, iters int, opts spi.DistOptions) ([]float64, *spi.ExecStats, error) {
	p := DefaultDeploy(len(frame), 1)
	p.SampleBytes = 8
	fs, err := FissionErrorGenSystem(p, k, 0)
	if err != nil {
		return nil, nil, err
	}
	if opts.NodeOf == nil {
		opts.NodeOf = SplitIOWorkers(fs.Mapping.NumProcs, len(opts.Addrs))
	}
	var result []float64
	kernels, err := fissionResidualKernels(fs, model, frame, func(e []float64) { result = e })
	if err != nil {
		return nil, nil, err
	}
	st, err := spi.ExecuteDistributed(fs.Plan.Graph, fs.Mapping, kernels, iters, opts)
	if err != nil {
		return nil, nil, err
	}
	return result, st, nil
}
