package lpc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/dsp"
	"repro/internal/signal"
	"repro/internal/spi"
	"repro/internal/transport"
)

// Allocation guard of actor D, the lpc_chan and lpc_*_stream workloads of
// the repo benchmark: 2048-sample frames on 4 PEs through
// DistributedResidual. Every kernel buffer is sized when the kernels are
// built, so a frame in steady state may cost the executor's and the link's
// amortised queue growth and nothing else, and what building the kernels
// costs is held to what the allocating kernels spent on the first frame.

const (
	allocFrame = 2048
	allocPEs   = 4
)

// A steady-state frame may allocate this much. Before the kernels owned
// their buffers a frame cost 115.3 allocations and 127 572 B.
var frameLimit = alloctest.Allocs{N: 1, Bytes: 256}

func allocInput(t *testing.T) (*dsp.LPCModel, []float64) {
	t.Helper()
	frame := signal.Speech(allocFrame, 5)
	model, err := dsp.LPCAnalyze(frame, 10)
	if err != nil {
		t.Fatal(err)
	}
	return model, frame
}

func TestAllocsDistributedResidualScalar(t *testing.T) {
	model, frame := allocInput(t)
	perFrame, cold := alloctest.SteadyAndOpen(200, func(n int) {
		if _, _, err := DistributedResidual(model, frame, allocPEs, n, spi.DistOptions{Addrs: []string{"only"}}); err != nil {
			t.Fatal(err)
		}
	})
	alloctest.AtMost(t, "one node, scalar: per frame", perFrame, frameLimit)
	// A cold one-frame call — deployment, first frame, tear-down — measured
	// 476 allocations and 196 160 B with kernels that allocated per frame
	// (a steady-state frame's share of it, 115 and 127 572 B, included).
	// Sizing the scratch at build must not move more than that into set-up,
	// or the benchmark's setup_s and latency_p50_us (a cold one-frame call
	// each) pay for it; with the scratch recycled between deployments it
	// measures 408 allocations and 88 696 B.
	alloctest.AtMost(t, "one node, scalar: cold one-frame call less a steady-state frame", cold, alloctest.Allocs{N: 476, Bytes: 196160})
}

func TestAllocsDistributedResidualBlockedLoopback(t *testing.T) {
	model, frame := allocInput(t)
	round := 0
	perFrame, _ := alloctest.SteadyAndOpen(640, func(n int) {
		round++
		tr := transport.NewLoopback()
		addrs := []string{fmt.Sprintf("lpc-alloc%d-0", round), fmt.Sprintf("lpc-alloc%d-1", round)}
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for node := range addrs {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				_, _, errs[node] = DistributedResidual(model, frame, allocPEs, n, spi.DistOptions{
					Transport: tr, Node: node, Addrs: addrs, Block: 16,
					Retry: transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
				})
			}(node)
		}
		wg.Wait()
		for node, err := range errs {
			if err != nil {
				t.Fatalf("node %d: %v", node, err)
			}
		}
	})
	alloctest.AtMost(t, "two nodes over loopback, block 16: per frame", perFrame, frameLimit)
}
