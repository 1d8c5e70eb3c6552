package lpc

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/dsp"
	"repro/internal/spi"
)

// Distributed error generation — application 1 across OS processes: the
// same n-PE actor-D deployment graph as ParallelResidual, but executed with
// spi.ExecuteDistributed so the I/O interface and the worker PEs can live
// in different processes connected by a byte transport. The kernels are
// pure functions of (iteration, inputs), so any partition of the mapping
// produces bit-identical residuals.

// residualKernels builds the functional kernel set for an ErrorGenSystem
// graph: io_send scatters coefficients and overlapping frame sections,
// each pe computes its residual range, io_recv reassembles the frame into
// collect (which only the node hosting io_recv observes; the slice is the
// actor's assembly buffer, overwritten by the next frame).
//
// Edges are resolved and every buffer a firing needs is set up here, sized
// from p and cut from sc (nil allocates them one by one) — the VTS
// discipline applied to kernel scratch: the bounds are known at SPI_init, so
// the frame path allocates nothing. Each actor returns the same output map
// and buffers from every firing, which the Kernel contract allows. The
// assembly buffer alone is never part of sc: it is handed to collect.
func residualKernels(g *dataflow.Graph, p DeployParams, model *dsp.LPCModel, frame []float64, collect func([]float64), sc *scratch) (map[dataflow.ActorID]spi.Kernel, error) {
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
	type peEdges struct{ coeffs, sect, errs dataflow.EdgeID }
	edges := make([]peEdges, p.PEs)
	kernels := make(map[dataflow.ActorID]spi.Kernel, p.PEs+2)
	scatter := make(map[dataflow.EdgeID][]byte, 2*p.PEs)
	for i := range edges {
		ed := peEdges{edge("coeffs", i), edge("sect", i), edge("errs", i)}
		edges[i] = ed
		start, end, hist := p.sectionOf(i)
		scatter[ed.coeffs] = sc.bytes(8 * p.Order)
		scatter[ed.sect] = sc.bytes(4 + 8*(end-start+hist))

		gen, out := newErrorGen(sc, p.Order, end-start+hist, end-start), make(map[dataflow.EdgeID][]byte, 1)
		kernels[actor(fmt.Sprintf("pe%d", i))] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			errs, err := gen.fireSection(in[ed.coeffs], in[ed.sect])
			out[ed.errs] = errs
			return out, err
		}
	}
	ioSend, ioRecv := actor("io_send"), actor("io_recv")
	if missing != nil {
		return nil, missing
	}
	kernels[ioSend] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		for i, ed := range edges {
			start, end, hist := p.sectionOf(i)
			scatter[ed.coeffs] = appendFloats(scatter[ed.coeffs][:0], model.Coeffs)
			scatter[ed.sect] = appendSection(scatter[ed.sect][:0], hist, frame[start-hist:end])
		}
		return scatter, nil
	}
	assembled := make([]float64, 0, p.SampleSize)
	kernels[ioRecv] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		assembled = assembled[:0]
		for _, ed := range edges {
			var err error
			if assembled, err = appendDecoded(assembled, in[ed.errs]); err != nil {
				return nil, err
			}
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
// must pass identical model/frame/nPE/iters.
func DistributedResidual(model *dsp.LPCModel, frame []float64, nPE, iters int, opts spi.DistOptions) ([]float64, *spi.ExecStats, error) {
	if nPE <= 0 {
		return nil, nil, fmt.Errorf("lpc: nPE = %d", nPE)
	}
	if nPE > len(frame) {
		nPE = len(frame)
	}
	p := DefaultDeploy(len(frame), nPE)
	p.SampleBytes = 8 // the functional kernels move float64 samples
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
