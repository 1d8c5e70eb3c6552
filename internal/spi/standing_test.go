package spi

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Tests for deployments that outlive one epoch: links that carry far more
// than a resend window of frames, watchdogs that must reach actors parked
// inside a link write, and standing partition runs whose checkpoints must
// equal those of per-epoch cold deployments.

// soakGraph is the orchestration benchmark's graph: a free-running source,
// a filter and a sink on three processors, 32-byte tokens, one delayed
// edge. On loopback it streams DATA one way and numbered ACKs the other,
// which is what makes both ends of a link owe a cumulative ack at once.
func soakGraph() (*dataflow.Graph, *sched.Mapping) {
	g := dataflow.New("orchbench")
	src := g.AddActor("src", 1)
	fir := g.AddActor("fir", 1)
	snk := g.AddActor("snk", 1)
	g.AddEdge("sf", src, fir, 1, 1, dataflow.EdgeSpec{TokenBytes: 32, Delay: 1})
	g.AddEdge("fs", fir, snk, 1, 1, dataflow.EdgeSpec{TokenBytes: 32})
	m := &sched.Mapping{
		NumProcs: 3,
		Proc:     []sched.Processor{0, 1, 2},
		Order:    [][]dataflow.ActorID{{src}, {fir}, {snk}},
	}
	return g, m
}

// soakKernels fills tokens from the iteration number, mixes them in the
// filter and folds them into *digest at the sink.
func soakKernels(digest *uint64) map[dataflow.ActorID]Kernel {
	return map[dataflow.ActorID]Kernel{
		0: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			out := make([]byte, 32)
			for i := range out {
				out[i] = byte(iter*31 + i)
			}
			return map[dataflow.EdgeID][]byte{0: out}, nil
		},
		1: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			out := make([]byte, 32)
			for i, v := range in[0] {
				out[i] = v ^ byte(iter+i)
			}
			return map[dataflow.EdgeID][]byte{1: out}, nil
		},
		2: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			for i, v := range in[1] {
				*digest = (*digest ^ uint64(v)) * 1099511628211
				*digest += uint64(iter + i)
			}
			return nil, nil
		},
	}
}

// TestLoopbackLongLinkSoak is the 300 000-iteration loopback run that
// wedged three times in four before link readers stopped writing: every
// resendLimit/4 numbered frames a reader owed a cumulative ack and wrote
// it itself, and on net.Pipe two readers inside Write wait for each other
// forever. The run must finish, with the digest of the in-process run.
func TestLoopbackLongLinkSoak(t *testing.T) {
	iterations := 300000
	if testing.Short() || raceEnabled {
		iterations = 60000
	}
	g, m := soakGraph()
	var want uint64
	if _, err := Execute(g, m, soakKernels(&want), iterations); err != nil {
		t.Fatal(err)
	}

	tr := transport.NewLoopback()
	addrs := []string{"soak0", "soak1", "soak2"}
	lns := make([]transport.Listener, len(addrs))
	for i, a := range addrs {
		ln, err := tr.Listen(a)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns[i] = ln
	}
	var got uint64
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for node := range addrs {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			_, errs[node] = ExecuteDistributed(g, m, soakKernels(&got), iterations, DistOptions{
				Transport: tr, Node: node, Addrs: addrs, Listener: lns[node],
				Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			})
		}(node)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("loopback run wedged: link readers are blocked writing cumulative acks at each other")
	}
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	if got != want {
		t.Errorf("sink digest %#x, in-process run %#x", got, want)
	}
}

// streamGraph is a free-running producer feeding a consumer on another
// processor over a dynamic (UBS) edge: the producer never waits for a
// credit, so with its frames black-holed it runs on until its link's
// resend buffer fills and parks inside Link.SendData — on no runtime
// edge, where CloseAll cannot reach it.
func streamGraph() (*dataflow.Graph, *sched.Mapping, map[dataflow.ActorID]Kernel) {
	g := dataflow.New("stream")
	p := g.AddActor("P", 1)
	c := g.AddActor("C", 1)
	g.AddEdge("pc", p, c, 1, 1, dataflow.EdgeSpec{TokenBytes: 8, ProduceDynamic: true, ConsumeDynamic: true})
	m := &sched.Mapping{NumProcs: 2, Proc: []sched.Processor{0, 1},
		Order: [][]dataflow.ActorID{{p}, {c}}}
	kernels := map[dataflow.ActorID]Kernel{
		p: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			return map[dataflow.EdgeID][]byte{0: {byte(iter), 1, 2, 3}}, nil
		},
		c: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			return nil, nil
		},
	}
	return g, m, kernels
}

// blackHole returns a loopback whose first connection to write 40 frames
// goes silent: writes keep succeeding and nothing arrives. DATA k is
// written before the ACK that answers it, so that is the producer's.
func blackHole() *transport.FaultTransport {
	return transport.NewFaultTransport(transport.NewLoopback(), transport.FaultConfig{
		StallAt: 40, SkipFrames: 4, MaxFaults: 1,
	})
}

// TestStallReleasesBlockedLinkWriter: the watchdog of a run whose
// producer is parked in a link write must abort the links too, so the
// run ends in a StallError naming the edge within twice the window
// instead of hanging. Only the producer's node arms the watchdog; the
// consumer's must come down with the link.
func TestStallReleasesBlockedLinkWriter(t *testing.T) {
	const window = 500 * time.Millisecond
	g, m, kernels := streamGraph()
	ft := blackHole()
	ln, err := ft.Listen("stall0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addrs := []string{ln.Addr(), "unused"}
	var errs [2]error
	var wg sync.WaitGroup
	start := time.Now()
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			opts := DistOptions{
				Transport: ft, Node: node, Addrs: addrs,
				Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			}
			if node == 0 {
				opts.Listener, opts.StallTimeout = ln, window
			}
			_, errs[node] = ExecuteDistributed(g, m, kernels, 1<<20, opts)
		}(node)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("stalled run hung: the watchdog fired but the producer stayed parked in its link write")
	}
	// The black hole opens within milliseconds of the start, so the whole
	// run is the detection time: one window plus a poll tick, under two.
	if elapsed := time.Since(start); elapsed > 2*window {
		t.Errorf("verdict took %v, window is %v", elapsed, window)
	}
	if ft.Stats().Stalls != 1 {
		t.Fatalf("stall fault injected %d times, want 1", ft.Stats().Stalls)
	}
	var se *StallError
	if !errors.As(errs[0], &se) {
		t.Fatalf("producer node: %v, want a *StallError", errs[0])
	}
	if !reflect.DeepEqual(se.Stalled, []string{"P"}) || !reflect.DeepEqual(se.Edges, []string{"pc"}) {
		t.Errorf("stalled actors %v on edges %v, want [P] on [pc]", se.Stalled, se.Edges)
	}
	if errs[1] == nil {
		t.Error("consumer node finished a black-holed run cleanly")
	}
}

// TestPartitionContextReleasesBlockedLinkWriter is the same hang on the
// partition path: the deployment's context is its only watchdog, and
// cancelling it must reach a producer parked in a link write.
func TestPartitionContextReleasesBlockedLinkWriter(t *testing.T) {
	g, m, byID := streamGraph()
	byName := map[string]Kernel{"P": byID[0], "C": byID[1]}
	specs, err := BuildPartitions(g, m, []int{0, 1}, 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ft := blackHole()
	addrs := make([]string, len(specs))
	lns := make([]transport.Listener, len(specs))
	for w := range lns {
		ln, err := ft.Listen(fmt.Sprintf("ctxstall-w%d", w))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[w], lns[w] = ln.Addr(), ln
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for w, spec := range specs {
		spec.BaseIter, spec.Iterations, spec.Addrs = 0, 1<<20, addrs
		wg.Add(1)
		go func(w int, spec *PartitionSpec) {
			defer wg.Done()
			_, errs[w] = coldEpoch(spec, byName, DistOptions{
				Transport: ft, Listener: lns[w], Context: ctx,
				Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			})
		}(w, spec)
	}
	// Wait for the black hole, give the producer time to fill its resend
	// buffer and park, then cancel.
	for deadline := time.Now().Add(10 * time.Second); ft.Stats().Stalls == 0; {
		if time.Now().After(deadline) {
			t.Fatal("stall fault never injected")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled partition run hung: the producer stayed parked in its link write")
	}
	for w, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("worker %d: %v, want context.Canceled", w, err)
		}
	}
}

// epochCheckpoint is what a coordinator holds after one epoch: every
// delayed edge's tail, plus the firings the epoch added.
type epochCheckpoint struct {
	Tails   map[uint16][][]byte
	Firings map[string]int
}

// runPartEpochs executes partGraph at the given blocking factor over the
// workers of a placement in epochs, either as one standing deployment
// (OpenPartition once, Run per epoch) or as a cold deployment per epoch
// (coldEpoch with the previous epoch's checkpoint), and returns the
// checkpoint after every epoch, with nil payloads read as empty ones (tails
// travel as bytes), and the sink digests.
func runPartEpochs(t *testing.T, iterations, epochLen, block int, workerOf []int, standing bool) ([]epochCheckpoint, map[string]uint64) {
	t.Helper()
	g, m := partGraph()
	sinks := &partTestSinks{d: map[string]uint64{}}
	tails := map[uint16][][]byte{} // a fresh spec carries iteration 0's own
	workers := slices.Max(workerOf) + 1
	retry := transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

	// deploy builds the three workers' specs, kernels and options for a
	// deployment starting at base with the current checkpoint.
	deploy := func(base, n int) ([]*PartitionSpec, []map[string]Kernel, []DistOptions) {
		specs, err := BuildPartitions(g, m, workerOf, workers, block, false)
		if err != nil {
			t.Fatal(err)
		}
		tr := transport.NewLoopback()
		addrs := make([]string, workers)
		kernels := make([]map[string]Kernel, workers)
		opts := make([]DistOptions, workers)
		for w := 0; w < workers; w++ {
			ln, err := tr.Listen(fmt.Sprintf("w%d", w))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			addrs[w] = ln.Addr()
			opts[w] = DistOptions{Transport: tr, Listener: ln, Retry: retry}
		}
		for w, spec := range specs {
			spec.BaseIter, spec.Iterations, spec.Addrs = base, n, addrs
			for id := range spec.Preload {
				if tl, ok := tails[id]; ok {
					spec.Preload[id] = tl
				}
			}
			_, byName := partTestKernels(g, 7, sinks)
			kernels[w] = byName
		}
		return specs, kernels, opts
	}

	var runs []*PartitionRun
	var out []epochCheckpoint
	for base := 0; base < iterations; base += epochLen {
		n := min(epochLen, iterations-base)
		results := make([]*PartResult, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		if runs == nil {
			specs, kernels, opts := deploy(base, n)
			if standing {
				runs = make([]*PartitionRun, workers)
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if !standing {
						results[w], errs[w] = coldEpoch(specs[w], kernels[w], opts[w])
						return
					}
					if runs[w], errs[w] = OpenPartition(specs[w], kernels[w], opts[w]); errs[w] == nil {
						results[w], errs[w] = runs[w].Run(base, n)
					}
				}(w)
			}
		} else {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					results[w], errs[w] = runs[w].Run(base, n)
				}(w)
			}
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("iteration %d worker %d: %v", base, w, err)
			}
		}
		cp := epochCheckpoint{Tails: map[uint16][][]byte{}, Firings: map[string]int{}}
		for _, res := range results {
			for id, tl := range res.Tails {
				tails[id] = tl
			}
			for name, nf := range res.Firings {
				cp.Firings[name] = nf
			}
		}
		for id, tl := range tails {
			cp.Tails[id] = clonePayloads(tl)
			for j, p := range cp.Tails[id] {
				if p == nil {
					cp.Tails[id][j] = []byte{}
				}
			}
		}
		out = append(out, cp)
	}
	var wg sync.WaitGroup
	for _, pr := range runs {
		wg.Add(1)
		go func(pr *PartitionRun) { defer wg.Done(); pr.Close(true) }(pr)
	}
	wg.Wait()
	return out, sinks.snapshot()
}

// sameCheckpoints compares two runs' checkpoints epoch by epoch.
func sameCheckpoints(t *testing.T, what string, got, want []epochCheckpoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d epochs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s, epoch %d:\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
}

// TestStandingPartitionMigrationCheckpoints: a standing deployment must
// hand the coordinator, after every epoch, exactly the checkpoint a cold
// deployment of that epoch would have — that is what lets a migration or
// a recovery restart cold from any commit. partGraph has a same-processor
// delayed edge and cross-worker edges
// with delays of two and one; epochs of one iteration are shorter than
// them. At B = 4 both delays are carried, and the checkpoint at a block
// boundary is the scalar run's; the last epoch ends inside a block.
func TestStandingPartitionMigrationCheckpoints(t *testing.T) {
	const iterations = 9
	want, _ := partReference(t, iterations)
	scalar := map[int][]epochCheckpoint{}
	for _, c := range []struct{ block, epochLen int }{{1, 1}, {1, 4}, {4, 4}, {4, 8}} {
		what := fmt.Sprintf("block %d, epochs of %d", c.block, c.epochLen)
		cold, coldDigests := runPartEpochs(t, iterations, c.epochLen, c.block, []int{0, 1, 2}, false)
		warm, warmDigests := runPartEpochs(t, iterations, c.epochLen, c.block, []int{0, 1, 2}, true)
		sameCheckpoints(t, what+": standing vs cold", warm, cold)
		if c.block == 1 {
			scalar[c.epochLen] = cold
		} else if ref, ok := scalar[c.epochLen]; ok {
			sameCheckpoints(t, what+": blocked vs scalar", cold, ref)
		}
		for name, d := range want {
			if coldDigests[name] != d || warmDigests[name] != d {
				t.Errorf("%s: sink %s cold %#x standing %#x, monolithic run %#x",
					what, name, coldDigests[name], warmDigests[name], d)
			}
		}
	}
}
