package spi

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Allocation guard: the repo benchmark bounds allocs_per_unit and
// alloc_bytes_per_unit at 5 %, and the executor's share of both is what
// these tests pin — steady-state allocations per iteration and the
// allocations of opening one environment. The pinned values were measured
// on the commit before the executor core was unified; the kernels allocate
// nothing, so every count is the executor's or the link's own. A regression
// fails here, not in the benchmark gate.

// allocSlack is the benchmark's 5 % bound.
const allocSlack = 0.05

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

// allocs is a heap allocation count and its bytes.
type allocs struct{ n, bytes float64 }

func (a allocs) sub(b allocs) allocs  { return allocs{a.n - b.n, a.bytes - b.bytes} }
func (a allocs) div(d float64) allocs { return allocs{a.n / d, a.bytes / d} }

// minAllocs is testing.AllocsPerRun taking the minimum over the runs, not
// the mean: how many frames a link's buffer pools miss depends on when its
// acks arrive, and that noise only ever adds.
func minAllocs(runs int, f func()) allocs {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm the pools
	best := allocs{math.Inf(1), math.Inf(1)}
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best.n = math.Min(best.n, float64(after.Mallocs-before.Mallocs))
		best.bytes = math.Min(best.bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return best
}

// steadyAndOpen splits the allocations of run(n) into the per-iteration
// steady state (the difference between an N- and a 2N-iteration run, so
// set-up cancels) and the fixed cost of the deployment around it (a
// one-iteration run less that iteration).
func steadyAndOpen(n int, run func(n int)) (perIter, open allocs) {
	a1 := minAllocs(5, func() { run(n) })
	a2 := minAllocs(5, func() { run(2 * n) })
	perIter = a2.sub(a1).div(float64(n))
	return perIter, minAllocs(5, func() { run(1) }).sub(perIter)
}

// checkAllocs holds a measurement to the value pinned on the parent commit
// plus the benchmark's bound; counts that round to a handful per iteration
// get a floor of 0.1 allocations (8 bytes) on top.
func checkAllocs(t *testing.T, what string, got, pinned allocs) {
	t.Helper()
	t.Logf("%s: %.2f allocations, %.0f B (pinned %.2f, %.0f B)", what, got.n, got.bytes, pinned.n, pinned.bytes)
	if raceEnabled {
		return // the race runtime drops sync.Pool entries at random
	}
	if limit := math.Max(pinned.n*(1+allocSlack), pinned.n+0.1); got.n > limit {
		t.Errorf("%s: %.2f allocations, parent commit measured %.2f (bound %.2f)", what, got.n, pinned.n, limit)
	}
	if pinned.bytes == 0 {
		return // bytes not pinned
	}
	if limit := math.Max(pinned.bytes*(1+allocSlack), pinned.bytes+8); got.bytes > limit {
		t.Errorf("%s: %.0f bytes allocated, parent commit measured %.0f (bound %.0f)", what, got.bytes, pinned.bytes, limit)
	}
}

func TestAllocsScalarExecute(t *testing.T) {
	g, m := pipelineGraph(t)
	perIter, open := steadyAndOpen(2000, func(n int) {
		byID, _ := pipelineKernels()
		if _, err := Execute(g, m, byID, n); err != nil {
			t.Fatal(err)
		}
	})
	checkAllocs(t, "Execute pipeline.sdf per iteration", perIter, pinnedExecPerIter)
	checkAllocs(t, "Execute pipeline.sdf open", open, pinnedExecOpen)
}

func TestAllocsDistributedLoopback(t *testing.T) {
	g, m := pipelineGraph(t)
	round := 0
	perIter, open := steadyAndOpen(2000, func(n int) {
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
	checkAllocs(t, "2-node loopback ExecuteDistributed per iteration", perIter, pinnedDistPerIter)
	checkAllocs(t, "2-node loopback ExecuteDistributed open", open, pinnedDistOpen)
}

// openPipelinePartitions opens pipeline.sdf as a standing two-worker
// deployment over a fresh loopback.
func openPipelinePartitions(t *testing.T, tag string) [2]*PartitionRun {
	t.Helper()
	g, m := pipelineGraph(t)
	specs, err := BuildPartitions(g, m, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := InitialPreloads(g, m)
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
		for i := range spec.Edges {
			if e := &spec.Edges[i]; (e.Out || e.SameProc) && e.Delay > 0 {
				spec.Preload[e.ID] = pre[e.ID]
			}
		}
		wg.Add(1)
		go func(w int, spec *PartitionSpec) {
			defer wg.Done()
			_, byName := pipelineKernels()
			runs[w], errs[w] = OpenPartition(spec, byName, PartOptions{
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
	perIter, perRun := steadyAndOpen(2000, func(n int) {
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
	})
	checkAllocs(t, "standing PartitionRun.Run per iteration", perIter, pinnedPartPerIter)
	checkAllocs(t, "standing PartitionRun.Run per call", perRun, pinnedPartPerRun)

	round := 0
	open := minAllocs(5, func() {
		round++
		for _, pr := range openPipelinePartitions(t, fmt.Sprintf("open%d", round)) {
			pr.Close(false)
		}
	})
	checkAllocs(t, "OpenPartition two workers, open and close", open, pinnedPartOpen)
}

// Measured on the parent commit (three hand-copied firing loops, two
// environments) with go1.24 at GOMAXPROCS=1.
var (
	pinnedExecPerIter = allocs{2.00, 147}
	pinnedExecOpen    = allocs{122, 7157}
	// Bytes not pinned: how far the edge queues and resend buffers grow
	// depends on scheduling: three parent runs spread from 72 to 161 B.
	pinnedDistPerIter = allocs{3.04, 0}
	pinnedDistOpen    = allocs{464, 28432}
	pinnedPartPerIter = allocs{3.06, 44}
	pinnedPartPerRun  = allocs{29, 1620}
	pinnedPartOpen    = allocs{827, 45384}
)
