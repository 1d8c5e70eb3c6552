package lpc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/dsp"
	"repro/internal/signal"
	"repro/internal/spi"
	"repro/internal/transport"
)

// Bit-identity of the fissioned LPC residual: for any replica count —
// including ones that do not divide the frame length — the gathered error
// signal must equal the serial model.Residual exactly, locally, over TCP,
// and under chaos sever/resume. The serial pipeline is
// fissioned with spi.FissionKernels, whose replicas each run error_gen on
// the whole frame and keep their SplitCounts share of its output.

// fissionKernels builds the kernel set of a fissioned serial pipeline:
// io_send sends the model's coefficients and the frame, error_gen computes
// the frame's residual, and io_recv hands the gathered residual to collect.
func fissionKernels(fs *FissionSystem, model *dsp.LPCModel, frame []float64, collect func([]float64)) (map[dataflow.ActorID]spi.Kernel, error) {
	g := fs.Plan.Source
	ids := map[string]dataflow.EdgeID{}
	for _, eid := range g.Edges() {
		ids[g.Edge(eid).Name] = eid
	}
	coeffs, samples, errs := ids["coeffs"], ids["frame"], ids["errs"]
	ioSend, _ := g.ActorByName("io_send")
	d, _ := g.ActorByName("error_gen")
	ioRecv, _ := g.ActorByName("io_recv")
	gen := newErrorGen(nil, model.Order(), len(frame), len(frame))
	return spi.FissionKernels(fs.Plan, map[dataflow.ActorID]spi.Kernel{
		ioSend: func(int, map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			return map[dataflow.EdgeID][]byte{coeffs: appendFloats(nil, model.Coeffs), samples: appendFloats(nil, frame)}, nil
		},
		d: func(_ int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			e, err := gen.fire(in[coeffs], in[samples], 0, len(frame))
			return map[dataflow.EdgeID][]byte{errs: e}, err
		},
		ioRecv: func(_ int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			got, err := appendDecoded(nil, in[errs])
			if err == nil {
				collect(got)
			}
			return nil, err
		},
	})
}

// fissionResidual runs this node's share of the serial pipeline fissioned
// into k replicas, with I/O on node 0 and the rest spread over the other
// nodes (SplitIOWorkers), and returns the last residual io_recv gathered.
func fissionResidual(model *dsp.LPCModel, frame []float64, k, iters int, opts spi.DistOptions) ([]float64, error) {
	p := DefaultDeploy(len(frame), 1)
	p.SampleBytes = 8
	fs, err := FissionErrorGenSystem(p, k, 0)
	if err != nil {
		return nil, err
	}
	opts.NodeOf = SplitIOWorkers(fs.Mapping.NumProcs, len(opts.Addrs))
	var got []float64
	kernels, err := fissionKernels(fs, model, frame, func(e []float64) { got = e })
	if err != nil {
		return nil, err
	}
	_, err = spi.ExecuteDistributed(fs.Plan.Graph, fs.Mapping, kernels, iters, opts)
	return got, err
}

// TestFissionResidualLocalBitIdentical runs the fissioned deployment on
// the monolithic executor for several k (k=1 degenerate, k=3 and k=7 not
// dividing N) and compares every collected frame sample-exactly against
// the serial residual.
func TestFissionResidualLocalBitIdentical(t *testing.T) {
	const iters = 3
	for _, n := range []int{100, 256} {
		frame := signal.Speech(n, 77)
		model, err := dsp.LPCAnalyze(frame, 10)
		if err != nil {
			t.Fatal(err)
		}
		want := model.Residual(frame)
		for _, k := range []int{1, 3, 7} {
			n, k, frame, model, want := n, k, frame, model, want
			t.Run(fmt.Sprintf("N%d-k%d", n, k), func(t *testing.T) {
				p := DefaultDeploy(n, 1)
				p.SampleBytes = 8
				fs, err := FissionErrorGenSystem(p, k, 0)
				if err != nil {
					t.Fatal(err)
				}
				if fs.Plan.K != k {
					t.Fatalf("plan chose k=%d, want %d", fs.Plan.K, k)
				}
				var frames [][]float64
				kernels, err := fissionKernels(fs, model, frame, func(e []float64) {
					frames = append(frames, e)
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := spi.Execute(fs.Plan.Graph, fs.Mapping, kernels, iters); err != nil {
					t.Fatal(err)
				}
				if len(frames) != iters {
					t.Fatalf("collected %d frames, want %d", len(frames), iters)
				}
				for it, got := range frames {
					if len(got) != n {
						t.Fatalf("iter %d: assembled %d samples, want %d", it, len(got), n)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("iter %d sample %d: fissioned %v, serial %v", it, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestFissionErrorGenSystemAutoK: with k unspecified, the pass picks the
// replica count and block factor jointly under the memory bound, and the
// chosen deployment stays bit-identical.
func TestFissionErrorGenSystemAutoK(t *testing.T) {
	const n = 128
	p := DefaultDeploy(n, 1)
	p.SampleBytes = 8
	fs, err := FissionErrorGenSystem(p, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Plan.K < 2 {
		t.Fatalf("auto selection chose k=%d, want >= 2", fs.Plan.K)
	}
	if fs.Plan.MemBound > 0 && fs.Plan.MemoryBytes > fs.Plan.MemBound {
		t.Fatalf("chosen point needs %d bytes, bound %d", fs.Plan.MemoryBytes, fs.Plan.MemBound)
	}
	frame := signal.Speech(n, 77)
	model, err := dsp.LPCAnalyze(frame, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := model.Residual(frame)
	var got []float64
	kernels, err := fissionKernels(fs, model, frame, func(e []float64) { got = e })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spi.Execute(fs.Plan.Graph, fs.Mapping, kernels, 2); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: fissioned %v, serial %v", i, got[i], want[i])
		}
	}
}

// TestFissionResidualDistributedTCP runs the fissioned pipeline across two
// nodes over a real byte stream, localhost TCP — I/O on node 0,
// scatter/gather and all replicas on node 1 — and checks the assembled
// residual bit-exactly against both the serial run and model.Residual.
func TestFissionResidualDistributedTCP(t *testing.T) {
	const n, k, iters = 200, 4, 3
	frame := signal.Speech(n, 77)
	model, err := dsp.LPCAnalyze(frame, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := model.Residual(frame)

	tr := &transport.TCP{}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr(), "unused"}
	var (
		results [2][]float64
		errs    [2]error
		wg      sync.WaitGroup
	)
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
			results[node], errs[node] = fissionResidual(model, frame, k, iters, opts)
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	got := results[0]
	if len(got) != n {
		t.Fatalf("node 0 assembled %d samples, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: fissioned %v, serial %v", i, got[i], want[i])
		}
	}
}

// TestFissionResidualChaosTCP severs the TCP connection mid-run: the dialer
// re-dials and the RESUME replay must leave the fissioned residual
// bit-identical to the serial one.
func TestFissionResidualChaosTCP(t *testing.T) {
	const n, k, iters = 256, 3, 4
	frame := signal.Speech(n, 77)
	model, err := dsp.LPCAnalyze(frame, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := model.Residual(frame)

	ft := transport.NewFaultTransport(&transport.TCP{}, transport.FaultConfig{
		Seed: 401, SeverAt: []int{9, 23, 51}, SkipFrames: 4,
	})
	ln, err := ft.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr(), "unused"}
	rc := transport.ReconnectConfig{Attempts: 50, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, Deadline: 20 * time.Second}
	var (
		results [2][]float64
		errs    [2]error
		wg      sync.WaitGroup
	)
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			opts := spi.DistOptions{
				Transport: ft,
				Node:      node,
				Addrs:     addrs,
				Reconnect: rc,
				Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond,
					MaxDelay: 5 * time.Millisecond},
			}
			if node == 0 {
				opts.Listener = ln
			}
			results[node], errs[node] = fissionResidual(model, frame, k, iters, opts)
		}(node)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("fissioned chaos run wedged (recovery failed to terminate)")
	}
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v (faults: %+v)", node, err, ft.Stats())
		}
	}
	if ft.Stats().Severs == 0 {
		t.Fatal("chaos schedule injected no severs; test proved nothing")
	}
	got := results[0]
	if len(got) != n {
		t.Fatalf("recovered run assembled %d samples, want %d (faults: %+v)", len(got), n, ft.Stats())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: recovered %v, serial %v (faults: %+v)", i, got[i], want[i], ft.Stats())
		}
	}
}
