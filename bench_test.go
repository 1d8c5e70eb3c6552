// Benchmark harness: one benchmark per paper table/figure plus the
// ablations and the core kernels. Figure/table benchmarks drive the same
// code paths as cmd/spibench and report the paper-comparable quantity
// (microseconds per frame/iteration, resource counts) as custom metrics.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/demo"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/hdl"
	"repro/internal/huffman"
	"repro/internal/lpc"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/orch"
	"repro/internal/particle"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/signal"
	"repro/internal/spi"
	"repro/internal/syncgraph"
	"repro/internal/transport"
	"repro/internal/vts"
)

// simulateUsPerIter lowers and runs an SPI system, returning the simulated
// steady-state microseconds per graph iteration.
func simulateUsPerIter(b *testing.B, sys *spi.System) float64 {
	b.Helper()
	dep, err := spi.Build(sys)
	if err != nil {
		b.Fatal(err)
	}
	const iters = 50
	st, err := dep.Sim.Run(iters)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dep.Sim.Config()
	span := st.IterationFinish[iters-1] - st.IterationFinish[iters/5]
	return st.Microseconds(cfg, span) / float64(iters-1-iters/5)
}

// BenchmarkFig6 regenerates figure 6: actor D execution time versus sample
// size for 1–4 PEs. The simulated_us_per_frame metric is the figure's y
// value.
func BenchmarkFig6(b *testing.B) {
	for _, N := range experiments.Fig6SampleSizes {
		for _, n := range experiments.Fig6PEs {
			b.Run(fmt.Sprintf("N=%d/n=%d", N, n), func(b *testing.B) {
				var us float64
				for i := 0; i < b.N; i++ {
					sys, err := lpc.ErrorGenSystem(lpc.DefaultDeploy(N, n))
					if err != nil {
						b.Fatal(err)
					}
					us = simulateUsPerIter(b, sys)
				}
				b.ReportMetric(us, "simulated_us_per_frame")
			})
		}
	}
}

// BenchmarkFig7 regenerates figure 7: particle-filter execution time versus
// particle count for 1 and 2 PEs.
func BenchmarkFig7(b *testing.B) {
	for _, N := range experiments.Fig7Particles {
		for _, n := range experiments.Fig7PEs {
			b.Run(fmt.Sprintf("N=%d/n=%d", N, n), func(b *testing.B) {
				var us float64
				for i := 0; i < b.N; i++ {
					sys, err := particle.FilterSystem(particle.DefaultDeploy(N, n), nil)
					if err != nil {
						b.Fatal(err)
					}
					us = simulateUsPerIter(b, sys)
				}
				b.ReportMetric(us, "simulated_us_per_iter")
			})
		}
	}
}

// BenchmarkTable1 regenerates table 1: the 4-PE actor-D area model, with
// the SPI library share as metrics.
func BenchmarkTable1(b *testing.B) {
	var sysR, libR hdl.Resources
	for i := 0; i < b.N; i++ {
		top, err := lpc.HardwareModel(lpc.DefaultDeploy(512, 4))
		if err != nil {
			b.Fatal(err)
		}
		sysR = top.Total()
		libR = top.TotalOf("spi_")
	}
	b.ReportMetric(float64(sysR.Slices), "system_slices")
	b.ReportMetric(libR.PercentOf(sysR).Slices, "spi_slice_pct")
	b.ReportMetric(libR.PercentOf(sysR).BRAMs, "spi_bram_pct")
}

// BenchmarkTable2 regenerates table 2: the 2-PE particle-filter area model.
func BenchmarkTable2(b *testing.B) {
	var sysR, libR hdl.Resources
	for i := 0; i < b.N; i++ {
		top, err := particle.HardwareModel(particle.DefaultDeploy(300, 2))
		if err != nil {
			b.Fatal(err)
		}
		sysR = top.Total()
		libR = top.TotalOf("spi_")
	}
	b.ReportMetric(float64(sysR.Slices), "system_slices")
	b.ReportMetric(libR.PercentOf(sysR).Slices, "spi_slice_pct")
	b.ReportMetric(libR.PercentOf(sysR).DSP48s, "spi_dsp_pct")
}

// BenchmarkFig3Resync regenerates the figure-3 synchronization
// optimization; sync_edges_removed is the figure's claim.
func BenchmarkFig3Resync(b *testing.B) {
	var removed int
	for i := 0; i < b.N; i++ {
		g := experiments.Fig3Graph(3)
		rep := syncgraph.Resynchronize(g, syncgraph.ResyncOptions{})
		removed = rep.SyncBefore - rep.SyncAfter
	}
	b.ReportMetric(float64(removed), "sync_edges_removed")
}

// BenchmarkFig5Resync regenerates the figure-5 synchronization
// optimization.
func BenchmarkFig5Resync(b *testing.B) {
	var removed int
	for i := 0; i < b.N; i++ {
		g := experiments.Fig5Graph()
		rep := syncgraph.Resynchronize(g, syncgraph.ResyncOptions{})
		removed = rep.SyncBefore - rep.SyncAfter
	}
	b.ReportMetric(float64(removed), "sync_edges_removed")
}

// BenchmarkSPIvsMPI compares per-message latency of the three framings
// (ablation A1) at representative payload sizes.
func BenchmarkSPIvsMPI(b *testing.B) {
	configs := []struct {
		name   string
		header int
		isMPI  bool
	}{
		{"spi_static", spi.StaticHeaderBytes, false},
		{"spi_dynamic", spi.DynamicHeaderBytes, false},
		{"mpi", 0, true},
	}
	for _, payload := range []int{64, 4096} {
		for _, cfg := range configs {
			b.Run(fmt.Sprintf("payload=%d/%s", payload, cfg.name), func(b *testing.B) {
				var us float64
				for i := 0; i < b.N; i++ {
					pc := platform.DefaultConfig(2)
					sim, err := platform.NewSim(pc)
					if err != nil {
						b.Fatal(err)
					}
					if cfg.isMPI {
						l, err := mpi.NewLink(sim, 0, 1, "mpi")
						if err != nil {
							b.Fatal(err)
						}
						sim.SetProgram(0, platform.Program(l.SendOps(payload)))
						sim.SetProgram(1, platform.Program(l.RecvOps(payload)))
					} else {
						ch, err := sim.AddChannel(platform.ChannelSpec{
							From: 0, To: 1, Name: "e", HeaderBytes: cfg.header, Capacity: 4,
						})
						if err != nil {
							b.Fatal(err)
						}
						sim.SetProgram(0, platform.Program{platform.Send(ch, payload)})
						sim.SetProgram(1, platform.Program{platform.Recv(ch)})
					}
					st, err := sim.Run(100)
					if err != nil {
						b.Fatal(err)
					}
					us = st.Microseconds(pc, st.Finish) / 100
				}
				b.ReportMetric(us, "simulated_us_per_msg")
			})
		}
	}
}

// BenchmarkResyncAblation measures the end-to-end platform effect of
// keeping vs removing the redundant acknowledgement messages (ablation A2):
// the actor-D system with every edge forced to UBS (acks) versus the
// analyzed protocols.
func BenchmarkResyncAblation(b *testing.B) {
	run := func(b *testing.B, resynchronized bool) (acks, us float64) {
		sys, err := lpc.ErrorGenSystem(lpc.DefaultDeploy(256, 3))
		if err != nil {
			b.Fatal(err)
		}
		// After resynchronization the acknowledgement edges are redundant
		// (program order + the error-return message imply them), so the
		// optimized deployment suppresses them.
		sys.SuppressAcks = resynchronized
		dep, err := spi.Build(sys)
		if err != nil {
			b.Fatal(err)
		}
		st, err := dep.Sim.Run(50)
		if err != nil {
			b.Fatal(err)
		}
		cfg := dep.Sim.Config()
		return float64(st.Messages[platform.AckMsg]), st.Microseconds(cfg, st.Finish) / 50
	}
	for _, resynced := range []bool{false, true} {
		name := "before_resync"
		if resynced {
			name = "after_resync"
		}
		b.Run(name, func(b *testing.B) {
			var acks, us float64
			for i := 0; i < b.N; i++ {
				acks, us = run(b, resynced)
			}
			b.ReportMetric(acks, "ack_msgs")
			b.ReportMetric(us, "simulated_us_per_frame")
		})
	}
}

// BenchmarkBBSvsUBS measures protocol cost (ablation A3).
func BenchmarkBBSvsUBS(b *testing.B) {
	for _, ubs := range []bool{false, true} {
		name := "bbs"
		if ubs {
			name = "ubs"
		}
		b.Run(name, func(b *testing.B) {
			var acks float64
			for i := 0; i < b.N; i++ {
				pc := platform.DefaultConfig(2)
				sim, err := platform.NewSim(pc)
				if err != nil {
					b.Fatal(err)
				}
				spec := platform.ChannelSpec{From: 0, To: 1, Name: "e", HeaderBytes: 6}
				if ubs {
					spec.AckBytes = 4
				} else {
					spec.Capacity = 4
				}
				ch, err := sim.AddChannel(spec)
				if err != nil {
					b.Fatal(err)
				}
				sim.SetProgram(0, platform.Program{platform.Compute(80), platform.Send(ch, 64)})
				sim.SetProgram(1, platform.Program{platform.Recv(ch), platform.Compute(100)})
				st, err := sim.Run(100)
				if err != nil {
					b.Fatal(err)
				}
				acks = float64(st.Messages[platform.AckMsg])
			}
			b.ReportMetric(acks, "ack_msgs")
		})
	}
}

// BenchmarkVTSPadding measures the wire savings of VTS variable-size
// transfers over worst-case static padding (ablation A4).
func BenchmarkVTSPadding(b *testing.B) {
	for _, padded := range []bool{false, true} {
		name := "vts"
		if padded {
			name = "padded"
		}
		b.Run(name, func(b *testing.B) {
			var bytes float64
			for i := 0; i < b.N; i++ {
				p := particle.DefaultDeploy(300, 2)
				var sizeFn func(int) int
				if padded {
					bound := p.Particles * p.ParticleBytes
					sizeFn = func(int) int { return bound }
				}
				sys, err := particle.FilterSystem(p, sizeFn)
				if err != nil {
					b.Fatal(err)
				}
				dep, err := spi.Build(sys)
				if err != nil {
					b.Fatal(err)
				}
				st, err := dep.Sim.Run(50)
				if err != nil {
					b.Fatal(err)
				}
				bytes = float64(st.Bytes[platform.DataMsg])
			}
			b.ReportMetric(bytes, "data_bytes")
		})
	}
}

// ---- Kernel benchmarks: the computational actors themselves. ----

func BenchmarkFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := dsp.FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPCAnalyze(b *testing.B) {
	x := signal.Speech(256, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dsp.LPCAnalyze(x, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHuffmanEncode(b *testing.B) {
	syms := make([]uint16, 4096)
	r := signal.NewRNG(3)
	for i := range syms {
		syms[i] = uint16(r.Intn(64))
	}
	freqs := huffman.Histogram(syms, 64)
	book, err := huffman.Build(freqs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var w huffman.BitWriter
		if err := book.Encode(&w, syms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressFrame(b *testing.B) {
	codec, err := lpc.NewCodec(lpc.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	x := signal.Speech(256, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.CompressFrame(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParticleStep(b *testing.B) {
	p := signal.DefaultCrackParams()
	f, err := particle.NewFilter(particle.Model{P: p}, 300, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Step(1.5)
	}
}

func BenchmarkDistributedStep(b *testing.B) {
	p := signal.DefaultCrackParams()
	d, err := particle.NewDistributed(particle.Model{P: p}, 300, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Step(1.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlatformEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pc := platform.DefaultConfig(4)
		sim, err := platform.NewSim(pc)
		if err != nil {
			b.Fatal(err)
		}
		var chans []platform.ChannelID
		for p := 0; p < 3; p++ {
			ch, err := sim.AddChannel(platform.ChannelSpec{From: p, To: p + 1, Name: "c", Capacity: 2})
			if err != nil {
				b.Fatal(err)
			}
			chans = append(chans, ch)
		}
		sim.SetProgram(0, platform.Program{platform.Compute(10), platform.Send(chans[0], 16)})
		sim.SetProgram(1, platform.Program{platform.Recv(chans[0]), platform.Compute(10), platform.Send(chans[1], 16)})
		sim.SetProgram(2, platform.Program{platform.Recv(chans[1]), platform.Compute(10), platform.Send(chans[2], 16)})
		sim.SetProgram(3, platform.Program{platform.Recv(chans[2]), platform.Compute(10)})
		if _, err := sim.Run(1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPIRuntimeThroughput(b *testing.B) {
	rt := spi.NewRuntime()
	tx, rx, err := rt.Init(spi.EdgeConfig{
		ID: 1, Mode: spi.Dynamic, MaxBytes: 256, Protocol: spi.BBS, Capacity: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 128)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, err := rx.Receive(); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Send(payload); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

func BenchmarkResynchronizeLarge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := experiments.Fig3Graph(8)
		syncgraph.Resynchronize(g, syncgraph.ResyncOptions{})
	}
}

// BenchmarkSASvsFlat compares APGAN looped scheduling against the flat
// single-appearance baseline on the figure-2 pipeline (buffer memory is
// the metric of interest).
func BenchmarkSASvsFlat(b *testing.B) {
	g, err := lpc.FullGraph(lpc.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	var apganMem, flatMem int64
	for i := 0; i < b.N; i++ {
		sas, err := sched.SingleAppearanceSchedule(g)
		if err != nil {
			b.Fatal(err)
		}
		apganMem, err = sched.SASBufferMemory(g, sas)
		if err != nil {
			b.Fatal(err)
		}
		flat, err := sched.FlatSAS(g)
		if err != nil {
			b.Fatal(err)
		}
		flatMem, err = sched.SASBufferMemory(g, flat)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(apganMem), "apgan_buffer_bytes")
	b.ReportMetric(float64(flatMem), "flat_buffer_bytes")
}

// BenchmarkFraming compares header vs delimiter unpacking of a 4 KiB
// packed token (ablation A5's receiver-side cost).
func BenchmarkFraming(b *testing.B) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, framing := range []vts.Framing{vts.HeaderFraming, vts.DelimiterFraming} {
		b.Run(framing.String(), func(b *testing.B) {
			p := vts.NewPacker(4096, framing)
			u := vts.NewUnpacker(4096, framing)
			msg, err := p.Pack(payload)
			if err != nil {
				b.Fatal(err)
			}
			buf := append([]byte(nil), msg...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := u.Unpack(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(u.ReceiverOps)/float64(b.N), "rx_ops_per_token")
		})
	}
}

// BenchmarkHardwareResidual measures the bit-true Q15 actor-D model.
func BenchmarkHardwareResidual(b *testing.B) {
	x := signal.Speech(512, 1)
	m, err := dsp.LPCAnalyze(x, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lpc.HardwareResidual(m, x)
	}
}

// BenchmarkHSDFExpansion measures firing-level expansion of a multirate
// chain.
func BenchmarkHSDFExpansion(b *testing.B) {
	g := dataflow.New("bench")
	a := g.AddActor("A", 1)
	m := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	g.AddEdge("ab", a, m, 8, 4, dataflow.EdgeSpec{})
	g.AddEdge("bc", m, c, 5, 2, dataflow.EdgeSpec{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dataflow.Expand(g); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEchoHandler feeds a transport link's inbound traffic into an SPI
// runtime for the round-trip benchmark.
type benchEchoHandler struct{ rt *spi.Runtime }

func (h *benchEchoHandler) HandleData(edge uint16, msg []byte)  { h.rt.DeliverData(edge, msg) }
func (h *benchEchoHandler) HandleAck(edge uint16, count uint32) { h.rt.DeliverAck(edge, count) }
func (h *benchEchoHandler) HandleFin(edge uint16)               { h.rt.CloseEdge(spi.EdgeID(edge)) }
func (h *benchEchoHandler) HandleLinkClose(error)               { h.rt.CloseAll() }

// BenchmarkTransportRoundTrip measures one SPI message round trip (send a
// payload on the ping edge, an echo goroutine returns it on the pong edge)
// over the three carriers of the runtime: the in-process channel queue,
// the in-memory loopback byte transport (net.Pipe framing), and real TCP
// over localhost. Payload sizes span 4 B to 64 KiB; both edges are
// SPI_dynamic under UBS, so every data message also costs an ack frame on
// the networked carriers — the full protocol, not just the bytes.
func BenchmarkTransportRoundTrip(b *testing.B) {
	const pingID, pongID = 1, 2
	sizes := []int{4, 64, 1024, 4096, 65536}

	initEdges := func(b *testing.B, rt *spi.Runtime, size int) (ping [2]interface{}, pong [2]interface{}) {
		b.Helper()
		ptx, prx, err := rt.Init(spi.EdgeConfig{ID: pingID, Mode: spi.Dynamic, MaxBytes: size, Protocol: spi.UBS})
		if err != nil {
			b.Fatal(err)
		}
		qtx, qrx, err := rt.Init(spi.EdgeConfig{ID: pongID, Mode: spi.Dynamic, MaxBytes: size, Protocol: spi.UBS})
		if err != nil {
			b.Fatal(err)
		}
		return [2]interface{}{ptx, prx}, [2]interface{}{qtx, qrx}
	}

	echo := func(rx *spi.Receiver, tx *spi.Sender, done chan<- struct{}) {
		defer close(done)
		for {
			p, err := rx.Receive()
			if err != nil {
				return
			}
			if err := tx.Send(p); err != nil {
				return
			}
		}
	}

	run := func(b *testing.B, tx *spi.Sender, rx *spi.Receiver, size int) {
		payload := make([]byte, size)
		b.SetBytes(int64(2 * size))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tx.Send(payload); err != nil {
				b.Fatal(err)
			}
			if _, err := rx.Receive(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}

	for _, size := range sizes {
		size := size
		b.Run(fmt.Sprintf("chan/%dB", size), func(b *testing.B) {
			rt := spi.NewRuntime()
			ping, pong := initEdges(b, rt, size)
			done := make(chan struct{})
			go echo(ping[1].(*spi.Receiver), pong[0].(*spi.Sender), done)
			run(b, ping[0].(*spi.Sender), pong[1].(*spi.Receiver), size)
			rt.CloseAll()
			<-done
		})
	}

	network := func(b *testing.B, tr transport.Transport, addr string, size int) {
		rtA, rtB := spi.NewRuntime(), spi.NewRuntime()
		pingA, pongA := initEdges(b, rtA, size)
		pingB, pongB := initEdges(b, rtB, size)

		decls := func(pingOut bool) []transport.EdgeDecl {
			return []transport.EdgeDecl{
				{ID: pingID, Mode: uint8(spi.Dynamic), Out: pingOut, Bytes: uint32(size), Protocol: uint8(spi.UBS)},
				{ID: pongID, Mode: uint8(spi.Dynamic), Out: !pingOut, Bytes: uint32(size), Protocol: uint8(spi.UBS)},
			}
		}
		ln, err := tr.Listen(addr)
		if err != nil {
			b.Fatal(err)
		}
		type accepted struct {
			l   *transport.Link
			err error
		}
		acceptCh := make(chan accepted, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				acceptCh <- accepted{nil, err}
				return
			}
			l, err := transport.AcceptLink(conn, transport.LinkConfig{Node: 1},
				func(int) ([]transport.EdgeDecl, transport.Handler, error) {
					return decls(false), &benchEchoHandler{rt: rtB}, nil
				})
			acceptCh <- accepted{l, err}
		}()
		conn, err := transport.DialRetry(context.Background(), tr, ln.Addr(), transport.RetryConfig{})
		if err != nil {
			b.Fatal(err)
		}
		linkA, err := transport.NewLink(conn, transport.LinkConfig{Node: 0, Edges: decls(true)}, &benchEchoHandler{rt: rtA})
		if err != nil {
			b.Fatal(err)
		}
		acc := <-acceptCh
		if acc.err != nil {
			b.Fatal(acc.err)
		}
		linkB := acc.l
		ln.Close()

		for _, bind := range []error{
			rtA.BindRemoteSender(pingID, linkA), rtA.BindRemoteReceiver(pongID, linkA),
			rtB.BindRemoteReceiver(pingID, linkB), rtB.BindRemoteSender(pongID, linkB),
		} {
			if bind != nil {
				b.Fatal(bind)
			}
		}

		done := make(chan struct{})
		go echo(pingB[1].(*spi.Receiver), pongB[0].(*spi.Sender), done)
		run(b, pingA[0].(*spi.Sender), pongA[1].(*spi.Receiver), size)

		var wg sync.WaitGroup
		for _, l := range []*transport.Link{linkA, linkB} {
			wg.Add(1)
			go func(l *transport.Link) { defer wg.Done(); l.Close() }(l)
		}
		wg.Wait()
		rtA.CloseAll()
		rtB.CloseAll()
		<-done
	}

	for _, size := range sizes {
		size := size
		b.Run(fmt.Sprintf("loopback/%dB", size), func(b *testing.B) {
			network(b, transport.NewLoopback(), "bench", size)
		})
	}
	for _, size := range sizes {
		size := size
		b.Run(fmt.Sprintf("tcp/%dB", size), func(b *testing.B) {
			network(b, &transport.TCP{}, "127.0.0.1:0", size)
		})
	}
}

// BenchmarkLinkThroughput measures one-way streaming throughput of small
// tokens — the hot path the write coalescer exists for. A sender streams
// b.N dynamic UBS messages on one edge while the peer drains them with
// ReceiveInto; tokens_per_s is the headline metric and allocs/op (run
// with -benchmem) shows the pooled send/receive path staying
// allocation-free. Each networked carrier runs unbatched (one write per
// frame), batched (frame coalescing + ack piggybacking), blocked
// (vectorized execution: 16 tokens packed into one slab message on top of
// the batched tuning, so headers, credits, and acks are paid once per
// block), and heartbeat (the blocked tuning with liveness probing
// enabled: pings only fire on idle links, so under saturation the tier
// measures the per-frame last-heard tracking and pinger-ticker cost —
// the heartbeat_overhead evidence that liveness is near-free on the hot
// path), and resync (the blocked tuning with the edge in the negotiated
// ack-suppression set, so the receiver emits no UBS acks at all —
// acks_suppressed_per_msg is the resync_vs_blocked evidence that the §4
// verdict removes the remaining ack traffic); the chan carrier is the
// in-process upper bound.
func BenchmarkLinkThroughput(b *testing.B) {
	const edgeID = 1
	const size = 16
	const blockTokens = 16

	drain := func(rx *spi.Receiver, n int, done chan<- struct{}) {
		defer close(done)
		buf := make([]byte, 0, size)
		for i := 0; i < n; i++ {
			p, err := rx.ReceiveInto(buf)
			if err != nil {
				return
			}
			buf = p[:0]
		}
	}
	stream := func(b *testing.B, tx *spi.Sender, rx *spi.Receiver) {
		payload := make([]byte, size)
		done := make(chan struct{})
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		go drain(rx, b.N, done)
		for i := 0; i < b.N; i++ {
			if err := tx.Send(payload); err != nil {
				b.Fatal(err)
			}
		}
		<-done
		b.StopTimer()
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(b.N)/s, "tokens_per_s")
		}
	}

	b.Run("chan", func(b *testing.B) {
		rt := spi.NewRuntime()
		tx, rx, err := rt.Init(spi.EdgeConfig{ID: edgeID, Mode: spi.Dynamic, MaxBytes: size, Protocol: spi.UBS})
		if err != nil {
			b.Fatal(err)
		}
		stream(b, tx, rx)
		rt.CloseAll()
	})

	// streamBlocked packs blockTokens tokens into one slab per message —
	// the wire pattern of vectorized (-block) execution — and reports
	// throughput in tokens, not slabs.
	streamBlocked := func(b *testing.B, tx *spi.Sender, rx *spi.Receiver) {
		payload := make([]byte, size)
		tokens := make([][]byte, blockTokens)
		for i := range tokens {
			tokens[i] = payload
		}
		slab, err := spi.PackSlab(nil, tokens, size, true)
		if err != nil {
			b.Fatal(err)
		}
		blocks := (b.N + blockTokens - 1) / blockTokens
		done := make(chan struct{})
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		go func() {
			defer close(done)
			buf := make([]byte, 0, len(slab))
			views := make([][]byte, blockTokens)
			for i := 0; i < blocks; i++ {
				p, err := rx.ReceiveInto(buf)
				if err != nil {
					return
				}
				if _, err := spi.UnpackSlab(p, blockTokens, size, true, views[:0]); err != nil {
					b.Error(err)
					return
				}
				buf = p[:0]
			}
		}()
		for i := 0; i < blocks; i++ {
			if err := tx.Send(slab); err != nil {
				b.Fatal(err)
			}
		}
		<-done
		b.StopTimer()
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(b.N)/s, "tokens_per_s")
		}
	}

	network := func(b *testing.B, tr transport.Transport, addr string, mode string) {
		batched := mode != "unbatched"
		blocked := mode == "blocked" || mode == "heartbeat" || mode == "resync"
		maxBytes := size
		if blocked {
			maxBytes = spi.SlabBound(size, true, blockTokens)
		}
		rtA, rtB := spi.NewRuntime(), spi.NewRuntime()
		tx, _, err := rtA.Init(spi.EdgeConfig{ID: edgeID, Mode: spi.Dynamic, MaxBytes: maxBytes, Protocol: spi.UBS})
		if err != nil {
			b.Fatal(err)
		}
		_, rx, err := rtB.Init(spi.EdgeConfig{ID: edgeID, Mode: spi.Dynamic, MaxBytes: maxBytes, Protocol: spi.UBS})
		if err != nil {
			b.Fatal(err)
		}
		decls := func(out bool) []transport.EdgeDecl {
			return []transport.EdgeDecl{
				{ID: edgeID, Mode: uint8(spi.Dynamic), Out: out, Bytes: uint32(maxBytes), Protocol: uint8(spi.UBS)},
			}
		}
		tune := func(cfg *transport.LinkConfig) {
			// A one-way stream at slab rates fills the default 256-frame
			// resend window and then paces on cumulative-ack round trips,
			// which would make every pairwise tier measure flow-control
			// latency coupling instead of the protocol cost it isolates;
			// the same generous window for every mode takes that variable
			// out of all of them.
			cfg.ResendLimit = 4096
			if batched {
				cfg.Batch = transport.BatchConfig{MaxFrames: 32, MaxBytes: 64 << 10, MaxDelay: 100 * time.Microsecond}
				cfg.PiggybackAcks = true
			}
			cfg.Blocked = blocked
			if mode == "heartbeat" {
				// An aggressive interval so the pinger ticker runs hot;
				// the generous peer timeout keeps a slow CI box from
				// tearing the benchmark link down mid-run.
				cfg.Heartbeat = 5 * time.Millisecond
				cfg.PeerTimeout = 2 * time.Second
			}
			if mode == "resync" {
				cfg.ResyncEdges = []uint16{edgeID}
			}
		}
		ln, err := tr.Listen(addr)
		if err != nil {
			b.Fatal(err)
		}
		linkCh := make(chan *transport.Link, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				b.Error(err)
				linkCh <- nil
				return
			}
			cfg := transport.LinkConfig{Node: 1}
			tune(&cfg)
			l, err := transport.AcceptLink(conn, cfg,
				func(int) ([]transport.EdgeDecl, transport.Handler, error) {
					return decls(false), &benchEchoHandler{rt: rtB}, nil
				})
			if err != nil {
				b.Error(err)
			}
			linkCh <- l
		}()
		conn, err := transport.DialRetry(context.Background(), tr, ln.Addr(), transport.RetryConfig{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := transport.LinkConfig{Node: 0, Edges: decls(true)}
		tune(&cfg)
		linkA, err := transport.NewLink(conn, cfg, &benchEchoHandler{rt: rtA})
		if err != nil {
			b.Fatal(err)
		}
		linkB := <-linkCh
		if linkB == nil {
			b.FailNow()
		}
		ln.Close()
		if err := rtA.BindRemoteSender(edgeID, linkA); err != nil {
			b.Fatal(err)
		}
		if err := rtB.BindRemoteReceiver(edgeID, linkB); err != nil {
			b.Fatal(err)
		}
		if blocked {
			streamBlocked(b, tx, rx)
		} else {
			stream(b, tx, rx)
		}
		// Ablation A8 evidence: the receiver acknowledges every UBS
		// message, so its standalone-ACK-frame count against the sender's
		// wire-write count shows what coalescing and piggybacking remove.
		sa, sb := linkA.Stats(), linkB.Stats()
		writes := float64(sa.FramesSent)
		if batched {
			writes = float64(sa.BatchFlushes)
		}
		b.ReportMetric(writes/float64(b.N), "writes_per_msg")
		b.ReportMetric(float64(sb.AcksSent)/float64(b.N), "ack_frames_per_msg")
		b.ReportMetric(float64(sb.AcksPiggybacked)/float64(b.N), "acks_piggybacked_per_msg")
		if mode == "heartbeat" {
			// A saturated link is never idle, so this stays near zero —
			// evidence the protocol adds no wire traffic under load.
			b.ReportMetric(float64(sa.PingsSent+sb.PingsSent)/float64(b.N), "pings_per_msg")
		}
		if mode == "resync" {
			// Every UBS message still triggers a SendAck; with the edge in
			// the negotiated suppression set none of them reach the wire.
			b.ReportMetric(float64(sb.AcksSuppressed)/float64(b.N), "acks_suppressed_per_msg")
		}
		var wg sync.WaitGroup
		for _, l := range []*transport.Link{linkA, linkB} {
			wg.Add(1)
			go func(l *transport.Link) { defer wg.Done(); l.Close() }(l)
		}
		wg.Wait()
		rtA.CloseAll()
		rtB.CloseAll()
	}

	for _, mode := range []string{"unbatched", "batched", "blocked", "heartbeat", "resync"} {
		mode := mode
		b.Run("loopback/"+mode, func(b *testing.B) {
			network(b, transport.NewLoopback(), "throughput-bench", mode)
		})
		b.Run("tcp/"+mode, func(b *testing.B) {
			network(b, &transport.TCP{}, "127.0.0.1:0", mode)
		})
	}
}

// BenchmarkVectorizedExecute measures end-to-end blocked execution on the
// in-process runtime: a two-processor producer/consumer chain of 16-byte
// tokens run through ExecuteBlocked at several blocking factors. block=1
// is the scalar baseline; larger blocks amortize per-message queue
// rounds, credits, and acks across the slab (experiment A9).
func BenchmarkVectorizedExecute(b *testing.B) {
	const size = 16
	for _, block := range []int{1, 4, 16} {
		block := block
		b.Run(fmt.Sprintf("block=%d", block), func(b *testing.B) {
			g := dataflow.New("vecbench")
			src := g.AddActor("src", 1)
			snk := g.AddActor("snk", 1)
			g.AddEdge("e", src, snk, 1, 1, dataflow.EdgeSpec{TokenBytes: size})
			m := &sched.Mapping{
				NumProcs: 2,
				Proc:     []sched.Processor{0, 1},
				Order:    [][]dataflow.ActorID{{src}, {snk}},
			}
			payload := make([]byte, size)
			kernels := map[dataflow.ActorID]spi.Kernel{
				src: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
					return map[dataflow.EdgeID][]byte{0: payload}, nil
				},
				snk: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
					return nil, nil
				},
			}
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := spi.ExecuteBlocked(g, m, kernels, b.N, spi.VecOptions{Block: block}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(b.N)/s, "tokens_per_s")
			}
		})
	}
}

// BenchmarkObsOverhead quantifies the cost of full observability — per-edge
// counters, gauges, and trace-ring events on every message — on the SPI
// round trip (experiment A7). Each carrier runs bare and then observed;
// the acceptance bar is <5% added latency on the networked (loopback)
// path, where a round trip already pays framing, mux, and ack costs. The
// in-process chan path is included for scale: its sub-microsecond trips
// make the same absolute cost loom larger.
func BenchmarkObsOverhead(b *testing.B) {
	const pingID, pongID, size = 1, 2, 64

	initEdges := func(b *testing.B, rt *spi.Runtime) (ptx *spi.Sender, prx *spi.Receiver, qtx *spi.Sender, qrx *spi.Receiver) {
		b.Helper()
		ptx, prx, err := rt.Init(spi.EdgeConfig{ID: pingID, Name: "ping", Mode: spi.Dynamic, MaxBytes: size, Protocol: spi.UBS})
		if err != nil {
			b.Fatal(err)
		}
		qtx, qrx, err = rt.Init(spi.EdgeConfig{ID: pongID, Name: "pong", Mode: spi.Dynamic, MaxBytes: size, Protocol: spi.UBS})
		if err != nil {
			b.Fatal(err)
		}
		return ptx, prx, qtx, qrx
	}
	echo := func(rx *spi.Receiver, tx *spi.Sender, done chan<- struct{}) {
		defer close(done)
		for {
			p, err := rx.Receive()
			if err != nil {
				return
			}
			if err := tx.Send(p); err != nil {
				return
			}
		}
	}
	run := func(b *testing.B, tx *spi.Sender, rx *spi.Receiver) {
		payload := make([]byte, size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tx.Send(payload); err != nil {
				b.Fatal(err)
			}
			if _, err := rx.Receive(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}

	chanTrip := func(b *testing.B, o *obs.Observer) {
		rt := spi.NewRuntime()
		rt.SetObserver(o)
		ptx, prx, qtx, qrx := initEdges(b, rt)
		done := make(chan struct{})
		go echo(prx, qtx, done)
		run(b, ptx, qrx)
		rt.CloseAll()
		<-done
	}
	netTrip := func(b *testing.B, tr transport.Transport, addr string, oA, oB *obs.Observer) {
		rtA, rtB := spi.NewRuntime(), spi.NewRuntime()
		rtA.SetObserver(oA)
		rtB.SetObserver(oB)
		ptxA, _, _, qrxA := initEdges(b, rtA)
		_, prxB, qtxB, _ := initEdges(b, rtB)
		decls := func(pingOut bool) []transport.EdgeDecl {
			return []transport.EdgeDecl{
				{ID: pingID, Mode: uint8(spi.Dynamic), Out: pingOut, Bytes: size, Protocol: uint8(spi.UBS)},
				{ID: pongID, Mode: uint8(spi.Dynamic), Out: !pingOut, Bytes: size, Protocol: uint8(spi.UBS)},
			}
		}
		ln, err := tr.Listen(addr)
		if err != nil {
			b.Fatal(err)
		}
		linkCh := make(chan *transport.Link, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				b.Error(err)
				linkCh <- nil
				return
			}
			l, err := transport.AcceptLink(conn, transport.LinkConfig{Node: 1, Obs: oB},
				func(int) ([]transport.EdgeDecl, transport.Handler, error) {
					return decls(false), &benchEchoHandler{rt: rtB}, nil
				})
			if err != nil {
				b.Error(err)
			}
			linkCh <- l
		}()
		conn, err := transport.DialRetry(context.Background(), tr, ln.Addr(), transport.RetryConfig{})
		if err != nil {
			b.Fatal(err)
		}
		linkA, err := transport.NewLink(conn, transport.LinkConfig{Node: 0, Edges: decls(true), Obs: oA}, &benchEchoHandler{rt: rtA})
		if err != nil {
			b.Fatal(err)
		}
		linkB := <-linkCh
		if linkB == nil {
			b.FailNow()
		}
		ln.Close()
		for _, bind := range []error{
			rtA.BindRemoteSender(pingID, linkA), rtA.BindRemoteReceiver(pongID, linkA),
			rtB.BindRemoteReceiver(pingID, linkB), rtB.BindRemoteSender(pongID, linkB),
		} {
			if bind != nil {
				b.Fatal(bind)
			}
		}
		done := make(chan struct{})
		go echo(prxB, qtxB, done)
		run(b, ptxA, qrxA)
		var wg sync.WaitGroup
		for _, l := range []*transport.Link{linkA, linkB} {
			wg.Add(1)
			go func(l *transport.Link) { defer wg.Done(); l.Close() }(l)
		}
		wg.Wait()
		rtA.CloseAll()
		rtB.CloseAll()
		<-done
	}

	// obs.New uses the production wall clock; the seeded test clock would
	// add a mutex per timestamp that real runs never pay. The metrics
	// variant (registry but no tracer) isolates counter cost from
	// trace-ring cost. The acceptance bar applies to the tcp pair — the
	// carrier spinode deployments actually run on; chan and loopback trips
	// are synchronous in-process handoffs that amplify the same absolute
	// cost into a larger ratio.
	metricsOnly := func() *obs.Observer { return &obs.Observer{Metrics: obs.NewRegistry()} }
	lo := transport.NewLoopback()
	b.Run("chan/bare", func(b *testing.B) { chanTrip(b, nil) })
	b.Run("chan/observed", func(b *testing.B) { chanTrip(b, obs.New()) })
	b.Run("loopback/bare", func(b *testing.B) { netTrip(b, lo, "obs-bench", nil, nil) })
	b.Run("loopback/metrics", func(b *testing.B) { netTrip(b, lo, "obs-bench", metricsOnly(), metricsOnly()) })
	b.Run("loopback/observed", func(b *testing.B) { netTrip(b, lo, "obs-bench", obs.New(), obs.New()) })
	b.Run("tcp/bare", func(b *testing.B) { netTrip(b, &transport.TCP{}, "127.0.0.1:0", nil, nil) })
	b.Run("tcp/observed", func(b *testing.B) { netTrip(b, &transport.TCP{}, "127.0.0.1:0", obs.New(), obs.New()) })
}

// BenchmarkOrch measures the cost of elasticity: the same 3-processor
// signal chain run statically in-process (<name>/static) and under the
// internal/orch coordinator with a 3-worker pool (<name>/elastic),
// including one planned live migration (placement rotation at epoch 1)
// and one worker death (kill at epoch 2) once b.N spans enough epochs.
// tokens_per_s is the headline pair metric; the elastic side also
// reports migrations, migration_downtime_tokens (iterations that had to
// be re-executed because an epoch aborted — the stall a client would
// observe), and recovery_ns (abort-to-redispatch wall time).
// cmd/benchdiff pairs the two as the elastic_vs_static tier.
func BenchmarkOrch(b *testing.B) {
	const seed = 3
	mk := func(b *testing.B) (*dataflow.Graph, *sched.Mapping) {
		b.Helper()
		g := dataflow.New("orchbench")
		src := g.AddActor("src", 1)
		fir := g.AddActor("fir", 1)
		snk := g.AddActor("snk", 1)
		g.AddEdge("sf", src, fir, 1, 1, dataflow.EdgeSpec{TokenBytes: 32, Delay: 1})
		g.AddEdge("fs", fir, snk, 1, 1, dataflow.EdgeSpec{TokenBytes: 32})
		m, err := demo.Mapping(g, []int{0, 1, 2})
		if err != nil {
			b.Fatal(err)
		}
		return g, m
	}

	b.Run("pool=3/static", func(b *testing.B) {
		g, m := mk(b)
		digests := demo.Sinks(g)
		var mu sync.Mutex
		kernels, err := demo.Kernels(g, seed, digests, &mu)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if _, err := spi.Execute(g, m, kernels, b.N); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(b.N)/s, "tokens_per_s")
		}
	})

	b.Run("pool=3/elastic", func(b *testing.B) {
		g, m := mk(b)
		tr := transport.NewLoopback()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		stops := map[string]context.CancelFunc{}
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("w%d", i)
			wk, err := orch.NewWorker(orch.WorkerConfig{
				Transport: tr, Coord: "bench-coord", Name: name,
				Kernels: func(spec *spi.PartitionSpec) (*orch.KernelSet, error) {
					kernels, sinks := demo.PartKernels(spec, seed)
					return &orch.KernelSet{Kernels: kernels, Collect: sinks.Take}, nil
				},
				Retry: transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond,
					MaxDelay: 5 * time.Millisecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			wctx, wcancel := context.WithCancel(ctx)
			defer wcancel()
			stops[name] = wcancel
			go wk.Run(wctx)
		}
		var killOnce sync.Once
		coord, err := orch.NewCoordinator(orch.CoordConfig{
			Transport: tr, Addr: "bench-coord", Graph: g, Mapping: m,
			Iterations: b.N, EpochIters: 64, MinWorkers: 3,
			EpochTimeout: 30 * time.Second,
			OnPlace: func(epoch int, placement []int, ids []uint32) []int {
				if epoch != 1 || len(ids) < 2 {
					return placement
				}
				rotated := make([]int, len(placement))
				for p, slot := range placement {
					rotated[p] = (slot + 1) % len(ids)
				}
				return rotated
			},
			OnDispatch: func(epoch int) {
				if epoch == 2 {
					killOnce.Do(stops["w2"])
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		rep, err := coord.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(b.N)/s, "tokens_per_s")
		}
		b.ReportMetric(float64(rep.Migrations), "migrations")
		b.ReportMetric(float64(rep.StalledTokens), "migration_downtime_tokens")
		b.ReportMetric(float64(rep.RecoveryNS), "recovery_ns")
	})
}

// BenchmarkFission regenerates the paper's speedup methodology for the
// AUTOMATIC parallelization: the serial actor-D pipeline against its
// dataflow.Fission rewrite. The modeled pair prices both deployments on
// the platform simulator — exactly how BenchmarkFig6 produces the
// figure's hand-parallelized speedup curve, but at a sample size an
// order of magnitude past the paper's largest point and with the
// deployment derived by the fission pass instead of written by hand.
// tokens_per_s is samples over simulated frame time, so the pair's ratio
// is the speedup curve's y value at this N. The wire pair then runs the
// fissioned deployment for real across two OS-visible endpoints — I/O on
// node 0, scatter/gather and replicas on node 1 — over localhost TCP and
// over the shared-memory ring transport, so the same-host transport
// choice is priced in wall-clock terms on the identical workload.
func BenchmarkFission(b *testing.B) {
	const (
		sampleN  = 8192 // paper's fig. 6 tops out at 512 samples
		replicas = 4
	)
	b.Run(fmt.Sprintf("modeled-N%d/serial", sampleN), func(b *testing.B) {
		var us float64
		for i := 0; i < b.N; i++ {
			sys, err := lpc.SerialErrorGenSystem(lpc.DefaultDeploy(sampleN, 1))
			if err != nil {
				b.Fatal(err)
			}
			us = simulateUsPerIter(b, sys)
		}
		b.ReportMetric(us, "simulated_us_per_frame")
		b.ReportMetric(float64(sampleN)*1e6/us, "tokens_per_s")
	})
	b.Run(fmt.Sprintf("modeled-N%d/fission", sampleN), func(b *testing.B) {
		var us float64
		k := 0
		for i := 0; i < b.N; i++ {
			fs, err := lpc.FissionErrorGenSystem(lpc.DefaultDeploy(sampleN, 1), replicas, 0)
			if err != nil {
				b.Fatal(err)
			}
			k = fs.Plan.K
			us = simulateUsPerIter(b, &spi.System{Graph: fs.Plan.Graph, Mapping: fs.Mapping})
		}
		b.ReportMetric(us, "simulated_us_per_frame")
		b.ReportMetric(float64(sampleN)*1e6/us, "tokens_per_s")
		b.ReportMetric(float64(k), "replicas")
	})

	const wireN = 2048
	frame := signal.Speech(wireN, 77)
	model, err := dsp.LPCAnalyze(frame, 10)
	if err != nil {
		b.Fatal(err)
	}
	wire := func(b *testing.B, tr transport.Transport, listenAddr string) {
		ln, err := tr.Listen(listenAddr)
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		addrs := []string{ln.Addr(), "unused"}
		var (
			errs [2]error
			got  []float64
			wg   sync.WaitGroup
		)
		b.ResetTimer()
		for node := 0; node < 2; node++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				opts := spi.DistOptions{
					Transport: tr,
					Node:      node,
					Addrs:     addrs,
					Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond,
						MaxDelay: 5 * time.Millisecond},
				}
				if node == 0 {
					opts.Listener = ln
				}
				var res []float64
				res, _, errs[node] = lpc.FissionResidual(model, frame, replicas, b.N, opts)
				if node == 0 {
					got = res
				}
			}(node)
		}
		wg.Wait()
		b.StopTimer()
		for node, err := range errs {
			if err != nil {
				b.Fatalf("node %d: %v", node, err)
			}
		}
		if len(got) != wireN {
			b.Fatalf("assembled %d samples, want %d", len(got), wireN)
		}
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(wireN)*float64(b.N)/s, "tokens_per_s")
		}
		b.ReportMetric(float64(replicas), "replicas")
	}
	b.Run(fmt.Sprintf("wire-N%d-k%d/tcp", wireN, replicas), func(b *testing.B) {
		wire(b, &transport.TCP{}, "127.0.0.1:0")
	})
	b.Run(fmt.Sprintf("wire-N%d-k%d/shm", wireN, replicas), func(b *testing.B) {
		wire(b, transport.NewShm(b.TempDir()), "fission-bench0")
	})
}
