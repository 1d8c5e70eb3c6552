package lpc

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/spi"
)

// Automatic fission of actor D: where deploy.go hand-builds the paper's
// n-PE error-generation system, this file starts from the SERIAL pipeline
// (io_send -> error_gen -> io_recv) and lets dataflow.Fission derive the
// data-parallel deployment — k replicas behind scatter/gather stages. The
// frame and coefficients are broadcast to the replicas, while the error
// stream is split on float64 tokens, so the gather's concatenation of the
// replicas' chunks is the serial error signal.

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
