package lpc

import (
	"fmt"
	"runtime"
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
	// measured 408 allocations and 88 696 B. With kernels reading views into
	// the received messages, not copies in per-edge receive buffers, it
	// measures 392 allocations and 53 520 B (go1.24), which is the pin.
	alloctest.Check(t, "one node, scalar: cold one-frame call less a steady-state frame", cold, alloctest.Allocs{N: 392, Bytes: 53520})
}

// blockedLoopback returns a cold blocked deployment of n frames: both nodes
// of DistributedResidual at block 16 over a fresh loopback.
func blockedLoopback(t *testing.T) func(n int) {
	model, frame := allocInput(t)
	round := 0
	return func(n int) {
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
	}
}

func TestAllocsDistributedResidualBlockedLoopback(t *testing.T) {
	perFrame, _ := alloctest.SteadyAndOpen(640, blockedLoopback(t))
	alloctest.AtMost(t, "two nodes over loopback, block 16: per frame", perFrame, blockedPerFrameLimit)
}

// TestAllocsBlockedBuffersOutliveCollections: a cold blocked deployment
// finds its slab and frame buffers — about 67 KB each — on the transport's
// free list, however many collections ran since the last one. Frame
// buffers came from a sync.Pool, which two collections empty, and every
// slab buffer regrew by append, so each cold deployment bought them again:
// the ~6 KB per frame the lpc_*_stream workloads allocated.
func TestAllocsBlockedBuffersOutliveCollections(t *testing.T) {
	const frames = 64 // four slabs on every PE edge
	run := blockedLoopback(t)
	collect := func() { runtime.GC(); runtime.GC() }
	got := alloctest.Min(5, func() { collect(); run(frames) })
	gc := alloctest.Min(5, collect)
	perFrame := alloctest.Allocs{N: (got.N - gc.N) / frames, Bytes: (got.Bytes - gc.Bytes) / frames}
	alloctest.Check(t, "cold two-node deployment, block 16, after two collections: per frame", perFrame, pinnedColdBlockedPerFrame)
}

// Measured with go1.24 at GOMAXPROCS=1. A steady-state blocked frame was
// held to the in-process limit, one allocation and 256 B, and measured 0.02
// and 2–4 B once slabs were packed in their frames' buffers; it measures 0
// and 0 B since a link's cumulative-ack trim stopped replacing its change
// channel when nothing waits on it, and is held to Check's floor for a zero.
// The cold deployment measured 23.05 allocations and 83 283 B per frame
// while frame buffers came from a sync.Pool and slab buffers regrew by
// append; it measures 16.83 and 2087 B with acks every quarter MiB.
var (
	blockedPerFrameLimit      = alloctest.Allocs{N: 0.1, Bytes: 8}
	pinnedColdBlockedPerFrame = alloctest.Allocs{N: 16.75, Bytes: 2101}
)
