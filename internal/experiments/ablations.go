package experiments

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/lpc"
	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/platform"
	"repro/internal/spi"
	"repro/internal/vts"
)

// SPIvsMPIPayloads are the message sizes swept by the framework-overhead
// ablation.
var SPIvsMPIPayloads = []int{4, 64, 512, 4096, 65536}

// SPIvsMPI quantifies the paper's motivating claim: SPI's specialized
// headers and protocols cost less per message than generic MPI-style
// communication. A producer/consumer pair moves messages of each size under
// three configurations — SPI_static (2-byte header), SPI_dynamic (6-byte
// header), and the MPI baseline (24-byte header, rendezvous handshake above
// the eager limit) — and the per-message latency and wire overhead are
// reported.
func SPIvsMPI() (*Table, error) {
	t := &Table{
		Title:  "Ablation A1 — per-message cost: SPI_static vs SPI_dynamic vs MPI baseline",
		Header: []string{"payload_B", "spi_static_us", "spi_dynamic_us", "mpi_us", "spi_ovh_B", "mpi_ovh_B"},
		Notes: []string{
			"SPI omits datatype and (for static edges) size from headers; MPI adds rendezvous above 512 B",
		},
	}
	const iters = 200
	perMessage := func(build func(sim *platform.Sim) error) (float64, error) {
		cfg := platform.DefaultConfig(2)
		sim, err := platform.NewSim(cfg)
		if err != nil {
			return 0, err
		}
		if err := build(sim); err != nil {
			return 0, err
		}
		st, err := sim.Run(iters)
		if err != nil {
			return 0, err
		}
		warm := iters / 5
		span := st.IterationFinish[iters-1] - st.IterationFinish[warm]
		return st.Microseconds(cfg, span) / float64(iters-1-warm), nil
	}
	for _, size := range SPIvsMPIPayloads {
		size := size
		spiStatic, err := perMessage(func(sim *platform.Sim) error {
			return pointToPoint(sim, spi.StaticHeaderBytes, size)
		})
		if err != nil {
			return nil, err
		}
		spiDynamic, err := perMessage(func(sim *platform.Sim) error {
			return pointToPoint(sim, spi.DynamicHeaderBytes, size)
		})
		if err != nil {
			return nil, err
		}
		mpiTime, err := perMessage(func(sim *platform.Sim) error {
			l, err := mpi.NewLink(sim, 0, 1, "mpi")
			if err != nil {
				return err
			}
			if err := sim.SetProgram(0, platform.Program(l.SendOps(size))); err != nil {
				return err
			}
			return sim.SetProgram(1, platform.Program(l.RecvOps(size)))
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.3f", spiStatic),
			fmt.Sprintf("%.3f", spiDynamic),
			fmt.Sprintf("%.3f", mpiTime),
			fmt.Sprintf("%d", spi.StaticHeaderBytes),
			fmt.Sprintf("%d", mpi.WireOverhead(size)),
		)
	}
	return t, nil
}

func pointToPoint(sim *platform.Sim, header, payload int) error {
	ch, err := sim.AddChannel(platform.ChannelSpec{
		From: 0, To: 1, Name: "p2p", HeaderBytes: header, Capacity: 4,
	})
	if err != nil {
		return err
	}
	if err := sim.SetProgram(0, platform.Program{platform.Send(ch, payload)}); err != nil {
		return err
	}
	return sim.SetProgram(1, platform.Program{platform.Recv(ch)})
}

// BBSvsUBS compares the buffer-synchronization protocols on the same edge:
// BBS throttles the sender with back-pressure and needs no acknowledgement
// traffic; UBS lets the sender run ahead at the price of per-message acks
// and unbounded buffer growth when the consumer is slower.
func BBSvsUBS() (*Table, error) {
	t := &Table{
		Title:  "Ablation A3 — SPI_BBS vs SPI_UBS on a producer-consumer edge",
		Header: []string{"protocol", "finish_us", "ack_msgs", "ack_bytes", "max_queued"},
		Notes: []string{
			"UBS trades acknowledgement traffic and buffer growth for a never-blocking sender",
		},
	}
	const iters = 200
	run := func(ubs bool) ([]string, error) {
		cfg := platform.DefaultConfig(2)
		sim, err := platform.NewSim(cfg)
		if err != nil {
			return nil, err
		}
		spec := platform.ChannelSpec{From: 0, To: 1, Name: "e", HeaderBytes: spi.DynamicHeaderBytes}
		if ubs {
			spec.AckBytes = spi.AckMessageBytes
		} else {
			spec.Capacity = 4
		}
		ch, err := sim.AddChannel(spec)
		if err != nil {
			return nil, err
		}
		// Producer slightly faster than consumer: pressure builds.
		sim.SetProgram(0, platform.Program{platform.Compute(80), platform.Send(ch, 64)})
		sim.SetProgram(1, platform.Program{platform.Recv(ch), platform.Compute(100)})
		st, err := sim.Run(iters)
		if err != nil {
			return nil, err
		}
		name := "SPI_BBS"
		if ubs {
			name = "SPI_UBS"
		}
		return []string{
			name,
			fmt.Sprintf("%.2f", st.Microseconds(cfg, st.Finish)),
			fmt.Sprintf("%d", st.Messages[platform.AckMsg]),
			fmt.Sprintf("%d", st.Bytes[platform.AckMsg]),
			fmt.Sprintf("%d", st.MaxQueued[ch]),
		}, nil
	}
	for _, ubs := range []bool{false, true} {
		row, err := run(ubs)
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	return t, nil
}

// VTSPadding compares VTS variable-size transfers against the worst-case
// static padding a pure-SDF implementation would need: the particle
// filter's migration edge carries its actual (varying) volume under VTS,
// versus always sending the declared bound.
func VTSPadding() (*Table, error) {
	t := &Table{
		Title:  "Ablation A4 — VTS packed transfers vs worst-case static padding (2-PE particle filter)",
		Header: []string{"config", "finish_us", "data_bytes", "savings_%"},
		Notes: []string{
			"VTS moves only the run-time payload; static SDF must provision and move the bound",
		},
	}
	const iters = 50
	p := particle.DefaultDeploy(300, 2)
	run := func(padded bool) (float64, int64, error) {
		var sizeFn func(int) int
		if padded {
			bound := p.Particles * p.ParticleBytes
			sizeFn = func(int) int { return bound }
		}
		sys, err := particle.FilterSystem(p, sizeFn)
		if err != nil {
			return 0, 0, err
		}
		dep, err := spi.Build(sys)
		if err != nil {
			return 0, 0, err
		}
		st, err := dep.Sim.Run(iters)
		if err != nil {
			return 0, 0, err
		}
		cfg := dep.Sim.Config()
		return st.Microseconds(cfg, st.Finish), st.Bytes[platform.DataMsg], nil
	}
	vtsUs, vtsBytes, err := run(false)
	if err != nil {
		return nil, err
	}
	padUs, padBytes, err := run(true)
	if err != nil {
		return nil, err
	}
	savings := 100 * (1 - float64(vtsBytes)/float64(padBytes))
	t.AddRow("vts_actual", fmt.Sprintf("%.2f", vtsUs), fmt.Sprintf("%d", vtsBytes), fmt.Sprintf("%.1f", savings))
	t.AddRow("static_padded", fmt.Sprintf("%.2f", padUs), fmt.Sprintf("%d", padBytes), "0.0")
	return t, nil
}

// Fig1VTS demonstrates the paper's figure-1 VTS conversion: the dynamic
// A→B edge (production bound 10, consumption bound 8) becomes a static
// rate-1 edge with packed tokens of bounded size, and the eq.1/eq.2 bounds
// follow once a feedback path bounds the producer.
func Fig1VTS() (*Table, error) {
	g := dataflow.New("fig1")
	a := g.AddActor("A", 10)
	b := g.AddActor("B", 10)
	g.AddEdge("ab", a, b, 10, 8, dataflow.EdgeSpec{
		ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 2,
	})
	g.AddEdge("ba", b, a, 1, 1, dataflow.EdgeSpec{Delay: 2, TokenBytes: 1})
	conv, err := vts.Convert(g)
	if err != nil {
		return nil, err
	}
	bounds, err := vts.ComputeBounds(conv)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 1 — VTS conversion of the dynamic-rate example",
		Header: []string{"edge", "orig_rates", "vts_rates", "b_max_B", "c_sdf", "c(e)_B", "gamma", "B(e)_B", "protocol"},
		Notes: []string{
			"dynamic production (bound 10) and consumption (bound 8) become rate-1 packed tokens of b_max = 10x2 = 20 bytes",
		},
	}
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		ce := conv.Graph.Edge(eid)
		info := conv.Info(eid)
		bd := bounds[eid]
		proto := "SPI_BBS"
		if !bd.Bounded {
			proto = "SPI_UBS"
		}
		t.AddRow(
			e.Name,
			fmt.Sprintf("%d/%d", e.Produce.Rate, e.Consume.Rate),
			fmt.Sprintf("%d/%d", ce.Produce.Rate, ce.Consume.Rate),
			fmt.Sprintf("%d", info.BMax),
			fmt.Sprintf("%d", bd.CSDF),
			fmt.Sprintf("%d", bd.CE),
			fmt.Sprintf("%d", bd.Gamma),
			fmt.Sprintf("%d", bd.IPC),
			proto,
		)
	}
	return t, nil
}

// Framing compares the two ways a variable-size packed token can tell the
// receiver its length (paper §3): a size field in the header (one receiver
// operation, fixed 4-byte overhead) versus a scanned delimiter (per-byte
// receiver work and data-dependent escape expansion). On an FPGA the
// delimiter costs per-byte logic in the receive datapath — "using a
// delimiter can be expensive ... sending the size using a field in the
// header of the message is much more efficient".
func Framing() (*Table, error) {
	t := &Table{
		Title:  "Ablation A5 — VTS token framing: size header vs delimiter",
		Header: []string{"payload_B", "hdr_wire_B", "delim_wire_B", "delim_worst_B", "hdr_rx_ops", "delim_rx_ops"},
		Notes: []string{
			"delimiter framing scans every byte on the receiver and can expand adversarial payloads 2x",
		},
	}
	for _, size := range []int{16, 256, 4096} {
		// Typical payload: incrementing bytes (some escapes).
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i)
		}
		// Adversarial payload: every byte needs escaping.
		worst := make([]byte, size)
		for i := range worst {
			worst[i] = 0x7E
		}
		hp := vts.NewPacker(int64(size), vts.HeaderFraming)
		hu := vts.NewUnpacker(int64(size), vts.HeaderFraming)
		dp := vts.NewPacker(int64(size), vts.DelimiterFraming)
		du := vts.NewUnpacker(int64(size), vts.DelimiterFraming)

		hmsg, err := hp.Pack(payload)
		if err != nil {
			return nil, err
		}
		hWire := len(hmsg)
		if _, err := hu.Unpack(hmsg); err != nil {
			return nil, err
		}
		dmsg, err := dp.Pack(payload)
		if err != nil {
			return nil, err
		}
		dWire := len(dmsg)
		if _, err := du.Unpack(append([]byte(nil), dmsg...)); err != nil {
			return nil, err
		}
		dworst, err := dp.Pack(worst)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%d", hWire),
			fmt.Sprintf("%d", dWire),
			fmt.Sprintf("%d", len(dworst)),
			fmt.Sprintf("%d", hu.ReceiverOps),
			fmt.Sprintf("%d", du.ReceiverOps),
		)
	}
	return t, nil
}

// Experiment is one named table or figure.
type Experiment struct {
	Name string
	Run  func() (*Table, error)
}

// Experiments lists every experiment in presentation order: All runs them
// in this order, and spibench -exp selects one by name.
var Experiments = []Experiment{
	{"fig1", Fig1VTS}, {"fig3", Fig3}, {"fig5", Fig5}, {"fig6", Fig6}, {"fig7", Fig7},
	{"table1", Table1}, {"table2", Table2}, {"spivsmpi", SPIvsMPI}, {"resync", ResyncPlatform},
	{"bbsvsubs", BBSvsUBS}, {"vtspadding", VTSPadding}, {"framing", Framing},
}

// All runs every experiment and returns the tables in presentation order.
func All() ([]*Table, error) {
	out := make([]*Table, 0, len(Experiments))
	for _, e := range Experiments {
		t, err := e.Run()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ResyncPlatform quantifies ablation A2 end to end on the platform: the
// 3-PE actor-D deployment before resynchronization (UBS acknowledgements on
// every dynamic edge) versus after (acknowledgements suppressed, their
// constraints proven redundant by the synchronization-graph analysis).
func ResyncPlatform() (*Table, error) {
	t := &Table{
		Title:  "Ablation A2 — resynchronization on the platform (3-PE actor D)",
		Header: []string{"config", "ack_msgs", "ack_bytes", "total_msgs", "us_per_frame"},
		Notes: []string{
			"resynchronization proves the UBS acknowledgements redundant; suppressing them removes traffic at unchanged latency",
		},
	}
	const iters = 50
	run := func(resynced bool) ([]string, error) {
		sys, err := lpc.ErrorGenSystem(lpc.DefaultDeploy(256, 3))
		if err != nil {
			return nil, err
		}
		sys.SuppressAcks = resynced
		dep, err := spi.Build(sys)
		if err != nil {
			return nil, err
		}
		st, err := dep.Sim.Run(iters)
		if err != nil {
			return nil, err
		}
		cfg := dep.Sim.Config()
		name := "before_resync"
		if resynced {
			name = "after_resync"
		}
		return []string{
			name,
			fmt.Sprintf("%d", st.Messages[platform.AckMsg]),
			fmt.Sprintf("%d", st.Bytes[platform.AckMsg]),
			fmt.Sprintf("%d", st.TotalMessages()),
			fmt.Sprintf("%.2f", st.Microseconds(cfg, st.Finish)/iters),
		}, nil
	}
	for _, resynced := range []bool{false, true} {
		row, err := run(resynced)
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	return t, nil
}
