package lpc

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/hdl"
	"repro/internal/sched"
	"repro/internal/spi"
)

// Deployment model of the parallelized actor D (figures 3 and 6, table 1):
// an I/O interface block feeds n customized hardware PEs; per frame, each
// PE receives the predictor coefficients and its overlapping frame section
// and returns its share of error values.

// DeployParams configures an actor-D deployment.
type DeployParams struct {
	// SampleSize is the frame size N (figure 6's x axis).
	SampleSize int
	// Order is the LPC model order M.
	Order int
	// PEs is the number of processing elements n.
	PEs int
	// SampleBytes is the fixed-point sample width on the FPGA (2 = Q15).
	SampleBytes int
	// MACCyclesPerTap is the PE datapath cost per filter tap.
	MACCyclesPerTap int64
}

// DefaultDeploy returns the evaluation defaults.
func DefaultDeploy(sampleSize, pes int) DeployParams {
	return DeployParams{
		SampleSize:      sampleSize,
		Order:           10,
		PEs:             pes,
		SampleBytes:     2,
		MACCyclesPerTap: 2,
	}
}

// Validate checks the parameters.
func (p DeployParams) Validate() error {
	if p.SampleSize <= 0 || p.Order <= 0 || p.PEs <= 0 {
		return fmt.Errorf("lpc: bad deploy params %+v", p)
	}
	if p.SampleBytes <= 0 || p.MACCyclesPerTap <= 0 {
		return fmt.Errorf("lpc: bad cost params %+v", p)
	}
	return nil
}

// sectionOf returns PE i's share of an N-sample frame split over n PEs:
// the samples [start, end) it computes and the hist samples before start it
// is sent along with them.
func (p DeployParams) sectionOf(i int) (start, end, hist int) {
	start, end = i*p.SampleSize/p.PEs, (i+1)*p.SampleSize/p.PEs
	return start, end, min(p.Order, start)
}

// ErrorGenSystem builds the SPI system of the n-PE actor-D deployment:
// dataflow graph, mapping (I/O interface on PE 0, workers on PEs 1..n),
// and the dynamic payload sizes. Pass the result to spi.Build.
func ErrorGenSystem(p DeployParams) (*spi.System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := dataflow.New(fmt.Sprintf("actorD-n%d-N%d", p.PEs, p.SampleSize))
	// The I/O interface appears as separate send and receive tasks on the
	// same processor (exactly the task structure of the paper's figure 3:
	// "send input frame", "send predictor coefficients", "receive error
	// values"), so the scatter happens before the gather within an
	// iteration.
	ioSend := g.AddActor("io_send", int64(p.SampleSize)+100)
	ioRecv := g.AddActor("io_recv", 50)
	workers := make([]dataflow.ActorID, p.PEs)
	payload := make(map[dataflow.EdgeID]func(int) int)
	for i := 0; i < p.PEs; i++ {
		start, end, hist := p.sectionOf(i)
		sl := end - start
		cost := int64(sl)*int64(p.Order)*p.MACCyclesPerTap + 50
		w := g.AddActor(fmt.Sprintf("pe%d", i), cost)
		workers[i] = w

		coeffBytes := p.Order * p.SampleBytes
		sectBytes := 4 + (sl+hist)*p.SampleBytes
		errBytes := sl * p.SampleBytes

		// The transfer sizes depend on run-time N and M: dynamic ports
		// with the section bound as the declared maximum (paper §5.2).
		ce := g.AddEdge(fmt.Sprintf("coeffs%d", i), ioSend, w, coeffBytes, coeffBytes,
			dataflow.EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 1})
		se := g.AddEdge(fmt.Sprintf("sect%d", i), ioSend, w, sectBytes, sectBytes,
			dataflow.EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 1})
		ee := g.AddEdge(fmt.Sprintf("errs%d", i), w, ioRecv, errBytes, errBytes,
			dataflow.EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 1})
		payload[ce] = func(int) int { return coeffBytes }
		payload[se] = func(int) int { return sectBytes }
		payload[ee] = func(int) int { return errBytes }
	}
	m := &sched.Mapping{
		NumProcs: p.PEs + 1,
		Proc:     make([]sched.Processor, g.NumActors()),
		Order:    make([][]dataflow.ActorID, p.PEs+1),
	}
	m.Proc[ioSend] = 0
	m.Proc[ioRecv] = 0
	m.Order[0] = []dataflow.ActorID{ioSend, ioRecv}
	for i, w := range workers {
		m.Proc[w] = sched.Processor(i + 1)
		m.Order[i+1] = []dataflow.ActorID{w}
	}
	return &spi.System{Graph: g, Mapping: m, PayloadFn: payload}, nil
}

// HardwareModel builds the HDL module tree of the n-PE actor-D
// implementation for the table-1 style area report: per PE a MAC datapath
// with sample/coefficient memories plus its SPI library instance, and a
// shared I/O interface.
func HardwareModel(p DeployParams) (*hdl.Module, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	top := hdl.NewModule(fmt.Sprintf("actorD_%dpe", p.PEs))

	// Shared I/O interface: frame buffer and host-side control.
	io := hdl.NewModule("io_interface")
	io.Add(hdl.RAM("io.framebuf", p.SampleSize*p.SampleBytes))
	io.Add(hdl.FSM("io.ctl", 8))
	io.Add(hdl.Counter("io.addr", 16))
	top.Add(io)

	for i := 0; i < p.PEs; i++ {
		start, end, _ := p.sectionOf(i)
		sl := end - start
		pe := hdl.NewModule(fmt.Sprintf("pe%d", i))
		// Error-generation datapath: a two-lane fixed-point MAC pipeline
		// over the M filter taps, sample and coefficient memories,
		// overlap-section prefetch, rounding/saturation, and control.
		name := fmt.Sprintf("pe%d", i)
		pe.Add(hdl.MAC(name+".mac0", 8*p.SampleBytes))
		pe.Add(hdl.MAC(name+".mac1", 8*p.SampleBytes))
		pe.Add(hdl.Adder(name+".combine", 16*p.SampleBytes))
		pe.Add(hdl.LUTLogic(name+".roundsat", 96))
		pe.Add(hdl.LUTLogic(name+".tapmux", 64))
		pe.Add(hdl.Register(name+".pipeline", 16*8*p.SampleBytes))
		pe.Add(hdl.RAM(name+".samples", (sl+p.Order)*p.SampleBytes+2048))
		pe.Add(hdl.RAM(name+".coeffs", 2048))
		pe.Add(hdl.FSM(name+".ctl", 16))
		pe.Add(hdl.FSM(name+".prefetch", 8))
		pe.Add(hdl.Counter(name+".addr", 12))
		pe.Add(hdl.Counter(name+".tap", 8))
		pe.Add(hdl.Comparator(name+".sectend", 12))
		top.Add(pe)

		// SPI library instance for this PE's three dynamic edges.
		sectBytes := 4 + (sl+p.Order)*p.SampleBytes
		top.Add(hdl.SPILibrary(fmt.Sprintf("pe%d", i), []hdl.SPIEdgeHW{
			{Name: fmt.Sprintf("coeffs%d", i), Dynamic: true, BufferBytes: p.Order * p.SampleBytes, UBS: true, Receives: true},
			{Name: fmt.Sprintf("sect%d", i), Dynamic: true, BufferBytes: sectBytes, UBS: true, Receives: true},
			{Name: fmt.Sprintf("errs%d", i), Dynamic: true, BufferBytes: sl * p.SampleBytes, UBS: true, Sends: true},
		}))
	}
	return top, nil
}
