package spi

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
)

// goid names the calling goroutine.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestRunFiresLastProcessorOnCaller: the last hosted processor fires on
// the goroutine that runs the deployment, so a one-processor node starts no
// goroutine of its own; the others still get one each.
func TestRunFiresLastProcessorOnCaller(t *testing.T) {
	g, twoProcs := distGraph()
	oneProc := &sched.Mapping{NumProcs: 1, Proc: make([]sched.Processor, 3),
		Order: [][]dataflow.ActorID{{0, 1, 2}}}
	for _, tc := range []struct {
		name   string
		m      *sched.Mapping
		caller []bool // per actor: fires on the caller's goroutine
	}{
		{"one processor", oneProc, []bool{true, true, true}},
		{"two processors", twoProcs, []bool{false, true, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sink [][]byte
			var mu sync.Mutex
			kernels := distKernels(&sink, &mu)
			fired := make([]string, len(kernels))
			for a, k := range kernels {
				kernels[a] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
					fired[a] = goid()
					return k(iter, in)
				}
			}
			if _, err := Execute(g, tc.m, kernels, 4); err != nil {
				t.Fatal(err)
			}
			me := goid()
			for a, onCaller := range tc.caller {
				if (fired[a] == me) != onCaller {
					t.Errorf("actor %s fired on goroutine %s, caller is %s; want on caller %v", g.Actor(dataflow.ActorID(a)).Name, fired[a], me, onCaller)
				}
			}
		})
	}
}

// TestWatchedRunsLeaveNothingBehind: the watchdog is two timers, not a
// goroutine, and a run that finishes disarms both: after a thousand
// watched runs the goroutine count settles back to where it was, and
// stays there past the stall window.
func TestWatchedRunsLeaveNothingBehind(t *testing.T) {
	const window = 20 * time.Millisecond
	g, m := distGraph()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	settled := func(limit int) bool {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > limit && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return runtime.NumGoroutine() <= limit
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		var sink [][]byte
		var mu sync.Mutex
		if _, err := ExecuteBlocked(g, m, distKernels(&sink, &mu), 10, VecOptions{StallTimeout: window, Context: ctx}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if !settled(base) {
		t.Fatalf("%d goroutines after 1000 watched runs, %d before", runtime.NumGoroutine(), base)
	}
	time.Sleep(2 * window)
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines a stall window after the runs, %d before: a watchdog timer outlived its run", n, base)
	}
}

// TestCancelledRunReturnsAtOnce: cancelling a run mid-flight releases it
// from the context's own callback, not from the next stall poll — with a
// one-minute window the poll is 15 s away.
func TestCancelledRunReturnsAtOnce(t *testing.T) {
	g, m := distGraph()
	var sink [][]byte
	var mu sync.Mutex
	kernels := distKernels(&sink, &mu)
	slow := kernels[0]
	kernels[0] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		time.Sleep(time.Millisecond)
		return slow(iter, in)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled time.Time
	timer := time.AfterFunc(50*time.Millisecond, func() {
		mu.Lock()
		cancelled = time.Now()
		mu.Unlock()
		cancel()
	})
	defer timer.Stop()
	_, err := ExecuteBlocked(g, m, kernels, 100_000, VecOptions{StallTimeout: time.Minute, Context: ctx})
	mu.Lock()
	lag := time.Since(cancelled)
	mu.Unlock()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if lag > 100*time.Millisecond {
		t.Errorf("run returned %v after its context was cancelled", lag)
	}
}
