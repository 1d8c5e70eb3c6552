package lpc

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/dsp"
	"repro/internal/spi"
)

// Parallel error generation — the paper's hardware/software co-design
// experiment: only actor D is parallelized, across n PEs. The I/O interface
// splits the frame into overlapping sections (each PE needs M samples of
// history to predict its first sample; the first section predicts from the
// zero-extended past, as dsp.LPCModel.Residual does), sends each PE its
// section and the predictor coefficients, and collects the error values.
// The model order and the frame size are not known before run time, so all
// three transfers use SPI_dynamic (paper §5.2).
//
// The deployment runs with spi.ExecuteDistributed over any number of nodes:
// one address runs it in this process, more let the I/O interface and the
// worker PEs live in different processes connected by a byte transport.
// The kernels are pure functions of (iteration, inputs), so any partition
// of the mapping produces bit-identical residuals.

// dSection is actor D's part of an ErrorGenSystem graph, or of CodecSystem's
// built on it: the I/O interface's two actors, each PE's edges, and the
// interface's scatter and gather bodies, which every deployment shares.
// Every buffer a firing needs is sized from p when it is built and cut from
// sc (nil allocates them one by one) — the VTS bounds are known at
// SPI_init, so the frame path allocates nothing; the scatter returns the
// same map and buffers from every firing, as the Kernel contract allows.
// The assembly buffer, which gather hands out, is never part of sc.
type dSection struct {
	p              DeployParams
	ioSend, ioRecv dataflow.ActorID
	edges          []peEdges
	scattered      map[dataflow.EdgeID][]byte
	assembled      []float64
}

type peEdges struct{ coeffs, sect, errs dataflow.EdgeID }

// newDSection resolves the section in g and adds each PE's kernel — the
// residual of its section, errorGen.fireSection — to kernels.
func newDSection(g *dataflow.Graph, p DeployParams, kernels map[dataflow.ActorID]spi.Kernel, sc *scratch) (*dSection, error) {
	// Resolve every actor and edge by name now; the first one missing
	// fails the build.
	var missing error
	actor := func(name string) dataflow.ActorID {
		a, ok := g.ActorByName(name)
		if !ok && missing == nil {
			missing = fmt.Errorf("lpc: graph has no %s actor", name)
		}
		return a
	}
	byName := make(map[string]dataflow.EdgeID, g.NumEdges())
	for _, eid := range g.Edges() {
		byName[g.Edge(eid).Name] = eid
	}
	edge := func(prefix string, i int) dataflow.EdgeID {
		name := fmt.Sprintf("%s%d", prefix, i)
		eid, ok := byName[name]
		if !ok && missing == nil {
			missing = fmt.Errorf("lpc: graph has no edge %s", name)
		}
		return eid
	}
	d := &dSection{
		p:         p,
		edges:     make([]peEdges, p.PEs),
		scattered: make(map[dataflow.EdgeID][]byte, 2*p.PEs+1),
		assembled: make([]float64, 0, p.SampleSize),
	}
	for i := range d.edges {
		ed := peEdges{edge("coeffs", i), edge("sect", i), edge("errs", i)}
		d.edges[i] = ed
		start, end, hist := p.sectionOf(i)
		d.scattered[ed.coeffs] = sc.bytes(8 * p.Order)
		d.scattered[ed.sect] = sc.bytes(4 + 8*(end-start+hist))

		gen, out := newErrorGen(sc, p.Order, end-start+hist, end-start), make(map[dataflow.EdgeID][]byte, 1)
		kernels[actor(fmt.Sprintf("pe%d", i))] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			errs, err := gen.fireSection(in[ed.coeffs], in[ed.sect])
			out[ed.errs] = errs
			return out, err
		}
	}
	d.ioSend, d.ioRecv = actor("io_send"), actor("io_recv")
	return d, missing
}

// scatter is io_send's output for one frame: every PE's coefficients and its
// overlapping section of the frame.
func (d *dSection) scatter(coeffs, frame []float64) map[dataflow.EdgeID][]byte {
	for i, ed := range d.edges {
		start, end, hist := d.p.sectionOf(i)
		d.scattered[ed.coeffs] = appendFloats(d.scattered[ed.coeffs][:0], coeffs)
		d.scattered[ed.sect] = appendSection(d.scattered[ed.sect][:0], hist, frame[start-hist:end])
	}
	return d.scattered
}

// gather reassembles the frame's prediction error from io_recv's inputs, in
// the actor's assembly buffer, which the next frame overwrites.
func (d *dSection) gather(in map[dataflow.EdgeID][]byte) ([]float64, error) {
	d.assembled = d.assembled[:0]
	for _, ed := range d.edges {
		var err error
		if d.assembled, err = appendDecoded(d.assembled, in[ed.errs]); err != nil {
			return nil, err
		}
	}
	return d.assembled, nil
}

// residualKernels builds the functional kernel set for an ErrorGenSystem
// graph: io_send scatters the model's coefficients and the frame, each pe
// computes its residual range, io_recv reassembles the frame into collect
// (which only the node hosting io_recv observes; the slice is the actor's
// assembly buffer, overwritten by the next frame).
func residualKernels(g *dataflow.Graph, p DeployParams, model *dsp.LPCModel, frame []float64, collect func([]float64), sc *scratch) (map[dataflow.ActorID]spi.Kernel, error) {
	kernels := make(map[dataflow.ActorID]spi.Kernel, p.PEs+2)
	d, err := newDSection(g, p, kernels, sc)
	if err != nil {
		return nil, err
	}
	kernels[d.ioSend] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		return d.scatter(model.Coeffs, frame), nil
	}
	kernels[d.ioRecv] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		assembled, err := d.gather(in)
		if err != nil {
			return nil, err
		}
		collect(assembled)
		return nil, nil
	}
	return kernels, nil
}

// SplitIOWorkers assigns the ErrorGenSystem processors to nodes with the
// I/O interface (processor 0) on node 0 and the worker PEs spread
// round-robin over the remaining nodes — the natural two-process partition
// when nodes == 2.
func SplitIOWorkers(numProcs, nodes int) []int {
	nodeOf := make([]int, numProcs)
	if nodes <= 1 {
		return nodeOf
	}
	for p := 1; p < numProcs; p++ {
		nodeOf[p] = 1 + (p-1)%(nodes-1)
	}
	return nodeOf
}

// DistributedResidual runs this node's share of the n-PE error-generation
// system for iters frames. opts.NodeOf defaults to SplitIOWorkers. The
// node hosting io_recv (node 0 under that split) returns the assembled
// residual of the last iteration; worker-only nodes return nil. Every node
// must pass identical model/frame/nPE/iters; the model's order sizes the
// coefficient edges and the history sent to each PE.
func DistributedResidual(model *dsp.LPCModel, frame []float64, nPE, iters int, opts spi.DistOptions) ([]float64, *spi.ExecStats, error) {
	if nPE <= 0 {
		return nil, nil, fmt.Errorf("lpc: nPE = %d", nPE)
	}
	if nPE > len(frame) {
		nPE = len(frame)
	}
	p := DefaultDeploy(len(frame), nPE)
	p.SampleBytes = 8               // the functional kernels move float64 samples
	p.Order = max(model.Order(), 1) // an empty predictor deploys at order 1
	sys, err := ErrorGenSystem(p)
	if err != nil {
		return nil, nil, err
	}
	if opts.NodeOf == nil {
		opts.NodeOf = SplitIOWorkers(sys.Mapping.NumProcs, len(opts.Addrs))
	}
	// The kernels' scratch — per PE its coefficients, section and errors as
	// floats, and the section and coefficients in and the errors out as
	// bytes — is free for the next deployment once this one has returned:
	// ExecuteDistributed waits for every processor it started.
	sc := getScratch(2*(p.SampleSize+p.PEs*p.Order), 16*(p.SampleSize+p.PEs*p.Order)+4*p.PEs)
	defer sc.release()
	var result []float64
	kernels, err := residualKernels(sys.Graph, p, model, frame, func(assembled []float64) {
		result = assembled
	}, sc)
	if err != nil {
		return nil, nil, err
	}
	st, err := spi.ExecuteDistributed(sys.Graph, sys.Mapping, kernels, iters, opts)
	if err != nil {
		return nil, nil, err
	}
	return result, st, nil
}
