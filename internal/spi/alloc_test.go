package spi

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Allocation guard: the repo benchmark bounds allocs_per_unit and
// alloc_bytes_per_unit at 5 %, and the executor's share of both is what
// these tests pin — steady-state allocations per iteration and the
// allocations of opening one environment. The kernels allocate nothing, so
// every count is the executor's or the link's own. A regression fails here,
// not in the benchmark gate.

func pipelineGraph(t *testing.T) (*dataflow.Graph, *sched.Mapping) {
	t.Helper()
	src, err := os.ReadFile("../../examples/graphs/pipeline.sdf")
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataflow.ParseString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	// -assign 0,1,1: one cross-processor static edge with a delay, one
	// same-processor dynamic edge.
	m := &sched.Mapping{NumProcs: 2, Proc: []sched.Processor{0, 1, 1},
		Order: [][]dataflow.ActorID{{0}, {1, 2}}}
	return g, m
}

// pipelineKernels are allocation-free kernels for pipeline.sdf: every
// output map and buffer is built once and reused, which the Kernel
// contract allows.
func pipelineKernels() (map[dataflow.ActorID]Kernel, map[string]Kernel) {
	srcBuf, midBuf := make([]byte, 8), make([]byte, 8)
	srcOut := map[dataflow.EdgeID][]byte{0: srcBuf}
	midOut := map[dataflow.EdgeID][]byte{}
	var digest uint64
	src := func(iter int, _ map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		for i := range srcBuf {
			srcBuf[i] = byte(iter + i)
		}
		return srcOut, nil
	}
	mid := func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		n := copy(midBuf, in[0])
		midOut[1] = midBuf[:1+(iter+n)%8]
		return midOut, nil
	}
	sink := func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		for _, v := range in[1] {
			digest = digest*31 + uint64(v)
		}
		return nil, nil
	}
	return map[dataflow.ActorID]Kernel{0: src, 1: mid, 2: sink},
		map[string]Kernel{"src": src, "mid": mid, "sink": sink}
}

func TestAllocsScalarExecute(t *testing.T) {
	g, m := pipelineGraph(t)
	perIter, open := alloctest.SteadyAndOpen(2000, func(n int) {
		byID, _ := pipelineKernels()
		if _, err := Execute(g, m, byID, n); err != nil {
			t.Fatal(err)
		}
	})
	alloctest.Check(t, "Execute pipeline.sdf per iteration", perIter, pinnedExecPerIter)
	alloctest.Check(t, "Execute pipeline.sdf open", open, pinnedExecOpen)
}

func TestAllocsDistributedLoopback(t *testing.T) {
	g, m := pipelineGraph(t)
	round := 0
	perIter, open := alloctest.SteadyAndOpen(2000, func(n int) {
		round++
		tr := transport.NewLoopback()
		addrs := []string{fmt.Sprintf("alloc%d-0", round), fmt.Sprintf("alloc%d-1", round)}
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for node := range addrs {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				byID, _ := pipelineKernels()
				_, errs[node] = ExecuteDistributed(g, m, byID, n, DistOptions{
					Transport: tr, Node: node, Addrs: addrs,
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
	alloctest.Check(t, "2-node loopback ExecuteDistributed per iteration", perIter, pinnedDistPerIter)
	alloctest.Check(t, "2-node loopback ExecuteDistributed open", open, pinnedDistOpen)
}

// TestAllocsWatchedRun is TestAllocsScalarExecute with the watchdog armed,
// as every benchmark workload runs: a stall window and a context. Arming
// it costs a timer and a context callback, not a goroutine.
func TestAllocsWatchedRun(t *testing.T) {
	g, m := pipelineGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	perIter, open := alloctest.SteadyAndOpen(2000, func(n int) {
		byID, _ := pipelineKernels()
		if _, err := ExecuteDistributed(g, m, byID, n, DistOptions{
			Addrs: []string{"local"}, NodeOf: []int{0, 0},
			StallTimeout: time.Minute, Context: ctx,
		}); err != nil {
			t.Fatal(err)
		}
	})
	alloctest.Check(t, "watched one-node ExecuteDistributed pipeline.sdf per iteration", perIter, pinnedExecPerIter)
	alloctest.Check(t, "watched one-node ExecuteDistributed pipeline.sdf open", open, pinnedWatchedOpen)
}

// TestAllocsLowerReadySpec pins what one deployment of a compiled spec
// costs before any edge is opened: what a session server, which compiles
// its spec once, pays per admission instead of planning the graph again.
func TestAllocsLowerReadySpec(t *testing.T) {
	g, m := pipelineGraph(t)
	specs, err := BuildPartitions(g, m, []int{0, 0}, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	_, byName := pipelineKernels()
	lower := alloctest.Min(5, func() {
		if _, err := lowerPartition(specs[0], byName); err != nil {
			t.Fatal(err)
		}
	})
	alloctest.Check(t, "lowerPartition pipeline.sdf, one node", lower, pinnedLowerSpec)
}

// openPipelinePartitions opens pipeline.sdf as a standing two-worker
// deployment over a fresh loopback.
func openPipelinePartitions(t *testing.T, tag string) [2]*PartitionRun {
	t.Helper()
	g, m := pipelineGraph(t)
	specs, err := BuildPartitions(g, m, []int{0, 1}, 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewLoopback()
	addrs := []string{tag + "-w0", tag + "-w1"}
	var runs [2]*PartitionRun
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w, spec := range specs {
		spec.Addrs = addrs
		spec.Iterations = 1
		wg.Add(1)
		go func(w int, spec *PartitionSpec) {
			defer wg.Done()
			_, byName := pipelineKernels()
			runs[w], errs[w] = OpenPartition(spec, byName, DistOptions{
				Transport: tr,
				Retry:     transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			})
		}(w, spec)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	return runs
}

func TestAllocsStandingPartitionRun(t *testing.T) {
	runs := openPipelinePartitions(t, "standing")
	defer func() {
		for _, pr := range runs {
			pr.Close(false)
		}
	}()
	base := 0
	run := func(n int) {
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for w, pr := range runs {
			wg.Add(1)
			go func(w int, pr *PartitionRun) {
				defer wg.Done()
				_, errs[w] = pr.Run(base, n)
			}(w, pr)
		}
		wg.Wait()
		base += n
		for w, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", w, err)
			}
		}
	}
	perIter, _ := alloctest.SteadyAndOpen(2000, run)
	// A one-iteration Run files one frame on each side's link, and a frame's
	// buffer goes back to the pool only when the peer acknowledges a whole
	// cycle of them (the transport's cumulative-ack interval, 64 frames). So
	// Runs are measured a cycle at a time: six consecutive Runs fall inside
	// one cycle, and after a GC emptied the pool every one of them missed it.
	const cycle = 64
	batch := alloctest.Min(5, func() {
		for i := 0; i < cycle; i++ {
			run(1)
		}
	})
	perRun := alloctest.Allocs{N: batch.N/cycle - perIter.N, Bytes: batch.Bytes/cycle - perIter.Bytes}
	alloctest.Check(t, "standing PartitionRun.Run per iteration", perIter, pinnedPartPerIter)
	alloctest.Check(t, "standing PartitionRun.Run per call", perRun, pinnedPartPerRun)

	round := 0
	open := alloctest.Min(5, func() {
		round++
		for _, pr := range openPipelinePartitions(t, fmt.Sprintf("open%d", round)) {
			pr.Close(false)
		}
	})
	alloctest.Check(t, "OpenPartition two workers, open and close", open, pinnedPartOpen)
}

// Measured with go1.24 at GOMAXPROCS=1. The per-iteration costs date from
// the commit on which the local queues began to recycle their token buffers;
// the deployment costs from the one that made the PartitionSpec the single
// compiled form. A static open pays for the spec it compiles on the way
// (Execute 122 → 131 allocations, 7157 → 8325 B: the spec with its
// processors, actors, edge lists and edges, and its preload map); a
// standing one no longer computes a resynchronization verdict nobody asked
// for (827 → 369). A run that fires its last processor on the calling
// goroutine and keeps its runtime edges in a sorted slice, not a map, opens
// for less: Execute 131 → 123 allocations and 8325 → 8069 B, two nodes
// 447 → 436 and 27 992 → 27 551 B, a lowering 13 → 12 and 1560 → 1536 B,
// a standing Run 29 → 25 and 1617 → 1443 B (both measured a cumulative-ack
// cycle at a time). A watched open pays for two timers where it paid for a
// goroutine, a ticker and a channel: 140 → 129 allocations, 8909 → 8485 B.
// An actor slot without a second kernel form, and a checkpoint that is the
// delayed-edge tails alone (no per-actor State map in a spec, an options
// struct or a PartResult), cost less again: a watched open 8485 → 8405 B, a
// lowering 1536 → 1520 B, a standing Run 25 → 23 allocations and
// 1443 → 1347 B, a standing two-worker open 29 792 → 29 512 B (its count
// measures 379 → 377, above the 369 pinned, which stays).
var (
	pinnedExecPerIter = alloctest.Allocs{N: 1.00, Bytes: 139}
	pinnedExecOpen    = alloctest.Allocs{N: 123, Bytes: 8069}
	pinnedWatchedOpen = alloctest.Allocs{N: 129, Bytes: 8405}
	// Bytes not pinned: how far the edge queues and resend buffers grow
	// depends on scheduling: three parent runs spread from 72 to 161 B.
	pinnedDistPerIter = alloctest.Allocs{N: 2.04}
	pinnedDistOpen    = alloctest.Allocs{N: 436, Bytes: 27551}
	pinnedPartPerIter = alloctest.Allocs{N: 2.06, Bytes: 36}
	pinnedPartPerRun  = alloctest.Allocs{N: 23, Bytes: 1347}
	pinnedPartOpen    = alloctest.Allocs{N: 369, Bytes: 29512}
	pinnedLowerSpec   = alloctest.Allocs{N: 12, Bytes: 1520}
)
