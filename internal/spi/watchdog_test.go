package spi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Liveness tests: runs that would previously hang — a black-holed peer, a
// mid-block transport stall, an overrun deadline — must now end in a
// bounded, named error. Every test here has a hard wall-clock ceiling; a
// hang is itself the failure.

// runTwoNodesWatched is runTwoNodesChaos with per-node option tweaks, for
// runs that configure the liveness layer (watchdog, heartbeat, deadline).
func runTwoNodesWatched(t *testing.T, tr transport.Transport, iterations int,
	tweak func(node int, o *DistOptions)) ([2]error, time.Duration) {
	t.Helper()
	g, m := distGraph()
	var sink [][]byte
	var mu sync.Mutex

	ln, err := tr.Listen("watch0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr(), "unused"}

	var errs [2]error
	var wg sync.WaitGroup
	start := time.Now()
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			opts := DistOptions{
				Transport: tr,
				Node:      node,
				Addrs:     addrs,
				NodeOf:    []int{0, 1},
				Retry:     transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			}
			if node == 0 {
				opts.Listener = ln
			}
			tweak(node, &opts)
			_, errs[node] = ExecuteDistributed(g, m, distKernels(&sink, &mu), iterations, opts)
		}(node)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("watched run wedged — the liveness layer failed its one job")
	}
	return errs, time.Since(start)
}

// TestDistributedStallWatchdog: a chaos stall black-holes one connection
// mid-run (blocked transfers, no heartbeat) — pure silence, no I/O error
// anywhere. The progress watchdog must notice the frozen run and return a
// *StallError naming the actors that never finished. The first watchdog
// to fire tears the shared link down, which may unblock the peer with a
// link-failure error before its own window elapses — that outcome is
// bounded too, so the test requires the stall diagnosis from at least one
// node and a prompt non-nil error from the other.
func TestDistributedStallWatchdog(t *testing.T) {
	const window = 400 * time.Millisecond
	ft := transport.NewFaultTransport(transport.NewLoopback(), transport.FaultConfig{
		StallAt: 10, SkipFrames: 6, MaxFaults: 1,
	})
	errs, elapsed := runTwoNodesWatched(t, ft, 200, func(node int, o *DistOptions) {
		o.Block = 4
		o.StallTimeout = window
	})
	if got := ft.Stats().Stalls; got != 1 {
		t.Fatalf("stall fault injected %d times, want 1", got)
	}
	stalls := 0
	for node, err := range errs {
		if err == nil {
			t.Fatalf("node %d: a black-holed run finished cleanly?", node)
		}
		var se *StallError
		if !errors.As(err, &se) {
			continue // collateral of the peer's abort; counted below
		}
		stalls++
		if se.Node != node {
			t.Errorf("node %d: StallError.Node = %d", node, se.Node)
		}
		if se.Window != window {
			t.Errorf("node %d: StallError.Window = %v, want %v", node, se.Window, window)
		}
		if len(se.Stalled) == 0 {
			t.Errorf("node %d: stall reported with no stalled actors", node)
		}
		for _, name := range se.Stalled {
			if n, ok := se.Firings[name]; !ok || n >= 200 {
				t.Errorf("node %d: stalled actor %s has firings %d (ok=%v)", node, name, n, ok)
			}
		}
	}
	if stalls == 0 {
		t.Fatalf("no node diagnosed the stall: %v / %v", errs[0], errs[1])
	}
	// Detection is bounded: the whole run — connect, a few iterations, the
	// stall, one full window plus a poll tick — fits well under 10x the
	// window even on a loaded CI box.
	if elapsed > 10*window+5*time.Second {
		t.Errorf("stalled run took %v to abort, window is %v", elapsed, window)
	}
}

// TestDistributedStallDegrades: same black-holed connection, this time
// with heartbeats on, recovery denied, and Degrade set — the acceptance
// path: the run ends in a DegradedError whose cause names the failure and
// whose Starved list names the actors that lost their inputs.
func TestDistributedStallDegrades(t *testing.T) {
	const window = 400 * time.Millisecond
	ft := transport.NewFaultTransport(transport.NewLoopback(), transport.FaultConfig{
		StallAt: 10, SkipFrames: 6, MaxFaults: 1, DenyDialsAfter: 1,
	})
	errs, _ := runTwoNodesWatched(t, ft, 200, func(node int, o *DistOptions) {
		o.Degrade = true
		o.StallTimeout = window
		o.Heartbeat = 25 * time.Millisecond
		o.PeerTimeout = 150 * time.Millisecond
		o.Reconnect = transport.ReconnectConfig{
			Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
			Deadline: 200 * time.Millisecond,
		}
	})
	for node, err := range errs {
		var de *DegradedError
		if !errors.As(err, &de) {
			t.Fatalf("node %d: err = %v, want *DegradedError", node, err)
		}
		if de.Node != node {
			t.Errorf("node %d: DegradedError.Node = %d", node, de.Node)
		}
		if len(de.Starved) == 0 {
			t.Errorf("node %d: degraded with no starved actors named", node)
		}
		if de.Cause == nil {
			t.Errorf("node %d: DegradedError.Cause is nil", node)
		}
	}
}

// TestDistributedContextDeadline: a context deadline bounds the whole
// run. Kernels that would happily run for many seconds are cut off, every
// blocked actor is released, and both nodes report the deadline — not a
// hang, not a bare ErrClosed.
func TestDistributedContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	errs, elapsed := runTwoNodesWatched(t, transport.NewLoopback(), 100_000, func(node int, o *DistOptions) {
		o.Context = ctx
	})
	for node, err := range errs {
		if err == nil {
			t.Fatalf("node %d: 100k iterations beat a 150ms deadline?", node)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("node %d: err = %v, want context.DeadlineExceeded in the chain", node, err)
		}
	}
	if elapsed > 10*time.Second {
		t.Errorf("deadline-bounded run took %v to unwind", elapsed)
	}
}

// TestExecuteBlockedContextDeadline: the same deadline propagation on the
// in-process blocked path, with kernels slow enough that the deadline
// lands mid-run.
func TestExecuteBlockedContextDeadline(t *testing.T) {
	g, m := distGraph()
	var sink [][]byte
	var mu sync.Mutex
	kernels := distKernels(&sink, &mu)
	slow := kernels[0]
	kernels[0] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		time.Sleep(time.Millisecond)
		return slow(iter, in)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ExecuteBlocked(g, m, kernels, 100_000, VecOptions{Block: 4, Context: ctx})
	if err == nil {
		t.Fatal("100k slow iterations beat a 100ms deadline?")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("deadline-bounded blocked run took %v to unwind", elapsed)
	}
}

// TestWatchVerdict: the watchdog's error wins over the ErrClosed noise its
// own CloseAll cascades, but never over a genuine kernel failure.
func TestWatchVerdict(t *testing.T) {
	kernel := errors.New("kernel exploded")
	closed := fmt.Errorf("actor recv: %w", ErrClosed)
	stall := &StallError{Node: 1, Window: time.Second}
	deadline := fmt.Errorf("spi: node 0 run cancelled: %w", context.DeadlineExceeded)
	cases := []struct {
		name       string
		runErr, wd error
		want       error
	}{
		{"clean run", nil, nil, nil},
		{"kernel failure, no watchdog", kernel, nil, kernel},
		{"watchdog over silent run", nil, stall, stall},
		{"watchdog over its own ErrClosed cascade", closed, stall, stall},
		{"kernel failure beats watchdog", kernel, stall, kernel},
		{"cancellation beats collateral link errors", errors.New("send: closed pipe"), deadline, deadline},
	}
	for _, c := range cases {
		if got := watchVerdict(c.runErr, c.wd); got != c.want { //nolint:errorlint // identity check is the contract
			t.Errorf("%s: watchVerdict = %v, want %v", c.name, got, c.want)
		}
	}
	// And the error text names the stalled actors for the operator.
	se := &StallError{Node: 2, Window: time.Second, Stalled: []string{"B", "C"},
		Firings: map[string]int{"B": 7, "C": 3}}
	msg := se.Error()
	for _, want := range []string{"node 2", "B (7 firings)", "C (3 firings)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("StallError %q does not mention %q", msg, want)
		}
	}
}

// TestStallSparesDrainedBBSEdges: a BBS edge sends no acknowledgement, so
// its sent count never meets an acked one; a stall report must not list it
// as pending once it is drained. A ⇄ B is a BBS cycle (ba carries the
// delay), C reads bc, then ac (both UBS). B stalls inside its last firing,
// so ab and ba are drained, bc is acknowledged up to date, and only ac,
// where A's last message waits for C, is pending.
func TestStallSparesDrainedBBSEdges(t *testing.T) {
	const iterations, window = 20, 200 * time.Millisecond
	g := dataflow.New("bbsstall")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	ab := g.AddEdge("ab", a, b, 1, 1, dataflow.EdgeSpec{TokenBytes: 1})
	ba := g.AddEdge("ba", b, a, 1, 1, dataflow.EdgeSpec{TokenBytes: 1, Delay: 1})
	bc := g.AddEdge("bc", b, c, 1, 1, dataflow.EdgeSpec{TokenBytes: 1})
	ac := g.AddEdge("ac", a, c, 1, 1, dataflow.EdgeSpec{TokenBytes: 1})
	m := &sched.Mapping{NumProcs: 3, Proc: []sched.Processor{0, 1, 2}, Order: [][]dataflow.ActorID{{a}, {b}, {c}}}
	tok := []byte{1}
	kernels := map[dataflow.ActorID]Kernel{
		a: func(int, map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			return map[dataflow.EdgeID][]byte{ab: tok, ac: tok}, nil
		},
		b: func(iter int, _ map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			if iter == iterations-1 {
				time.Sleep(3 * window) // outlasts the watchdog, then returns
			}
			return map[dataflow.EdgeID][]byte{ba: tok, bc: tok}, nil
		},
		c: func(int, map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) { return nil, nil },
	}
	plan, err := newGraphPlan(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []dataflow.EdgeID{ab, ba} {
		if Protocol(plan.edge(e).Protocol) != BBS {
			t.Fatalf("edge %s is not BBS: the graph no longer exercises the rule", g.Edge(e).Name)
		}
	}
	_, err = ExecuteBlocked(g, m, kernels, iterations, VecOptions{StallTimeout: window})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("run returned %v, want a StallError", err)
	}
	if strings.Join(se.Stalled, ",") != "B,C" || strings.Join(se.Edges, ",") != "ac" {
		t.Fatalf("stalled %v, pending edges %v; want [B C] and [ac]", se.Stalled, se.Edges)
	}
}
