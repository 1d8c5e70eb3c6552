package lpc

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dsp"
	"repro/internal/signal"
	"repro/internal/spi"
	"repro/internal/transport"
)

// TestDistributedResidualTwoProcesses is the application-1 end-to-end: the
// n-PE error-generation system split into two spinode-style partitions —
// I/O interface in one, all worker PEs in the other — talking TCP over
// localhost, checked bit-identical against the single-process spi.Execute
// of the same system.
func TestDistributedResidualTwoProcesses(t *testing.T) {
	const N, nPE, iters = 256, 3, 2
	frame := signal.Speech(N, 77)
	model, err := dsp.LPCAnalyze(frame, 10)
	if err != nil {
		t.Fatal(err)
	}

	// Single-process reference over spi.Execute.
	p := DefaultDeploy(N, nPE)
	p.SampleBytes = 8
	sys, err := ErrorGenSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	var ref []float64
	kernels, err := residualKernels(sys.Graph, p, model, frame, func(a []float64) { ref = a }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spi.Execute(sys.Graph, sys.Mapping, kernels, iters); err != nil {
		t.Fatal(err)
	}
	if len(ref) != N {
		t.Fatalf("reference assembled %d samples", len(ref))
	}

	// Two nodes over TCP localhost.
	tr := &transport.TCP{}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr(), "unused"}
	var (
		results [2][]float64
		stats   [2]*spi.ExecStats
		errs    [2]error
		wg      sync.WaitGroup
	)
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			opts := spi.DistOptions{Transport: tr, Node: node, Addrs: addrs}
			if node == 0 {
				opts.Listener = ln
			}
			results[node], stats[node], errs[node] = DistributedResidual(model, frame, nPE, iters, opts)
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}

	got := results[0]
	if len(got) != N {
		t.Fatalf("distributed assembled %d samples", len(got))
	}
	if results[1] != nil {
		t.Errorf("worker node returned a residual")
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("sample %d: distributed %v, single-process %v", i, got[i], ref[i])
		}
	}
	// Sanity against the serial computation too.
	serial := model.Residual(frame)
	for i := range serial {
		if got[i] != serial[i] {
			t.Fatalf("sample %d: distributed %v, serial %v", i, got[i], serial[i])
		}
	}

	// Traffic: node 0 sends 2 messages per PE per iteration (coeffs, sect),
	// node 1 sends 1 per PE per iteration (errs).
	if n := stats[0].SPI.Messages; n != int64(2*nPE*iters) {
		t.Errorf("node 0 sent %d messages, want %d", n, 2*nPE*iters)
	}
	if n := stats[1].SPI.Messages; n != int64(nPE*iters) {
		t.Errorf("node 1 sent %d messages, want %d", n, nPE*iters)
	}
}

// TestDistributedResidualPerPENodes puts every worker PE in its own node —
// the maximal partition — over the in-memory loopback transport.
func TestDistributedResidualPerPENodes(t *testing.T) {
	const N, nPE = 64, 3
	frame := signal.Speech(N, 5)
	model, err := dsp.LPCAnalyze(frame, 10)
	if err != nil {
		t.Fatal(err)
	}
	serial := model.Residual(frame)

	nodes := nPE + 1
	tr := transport.NewLoopback()
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = string(rune('a' + i))
	}
	// Only node 0 accepts connections (all workers dial the I/O node).
	ln, err := tr.Listen(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]float64, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			opts := spi.DistOptions{Transport: tr, Node: node, Addrs: addrs}
			if node == 0 {
				opts.Listener = ln
			}
			results[node], _, errs[node] = DistributedResidual(model, frame, nPE, 1, opts)
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	if len(results[0]) != N {
		t.Fatalf("assembled %d samples", len(results[0]))
	}
	for i := range serial {
		if results[0][i] != serial[i] {
			t.Fatalf("sample %d: %v vs serial %v", i, results[0][i], serial[i])
		}
	}
}

// TestDistributedResidualRecycledScratch: consecutive deployments hand their
// kernel scratch on through a pool; what an earlier frame left in it must not
// show in a later result, whether the next frame fits the recycled slabs or
// needs larger ones.
func TestDistributedResidualRecycledScratch(t *testing.T) {
	for i, n := range []int{512, 512, 300, 2048, 512} {
		frame := signal.Speech(n, uint64(40+i))
		model, err := dsp.LPCAnalyze(frame, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DistributedResidual(model, frame, 4, 2, spi.DistOptions{Addrs: []string{"only"}})
		if err != nil {
			t.Fatal(err)
		}
		want := model.Residual(frame)
		if len(got) != len(want) {
			t.Fatalf("call %d: %d samples, want %d", i, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("call %d sample %d: %v, serial %v", i, j, got[j], want[j])
			}
		}
	}
}
