// Package alloctest measures heap allocations for the allocation guards of
// internal/spi and internal/lpc: tests that pin what a steady-state
// iteration and a cold deployment allocate, so that a regression fails in
// the package that caused it and not in the benchmark's 5 % bounds on
// allocs_per_unit and alloc_bytes_per_unit.
package alloctest

import (
	"math"
	"runtime"
	"testing"
)

// slack is the benchmark's 5 % bound.
const slack = 0.05

// Allocs is a heap allocation count and its bytes.
type Allocs struct{ N, Bytes float64 }

func (a Allocs) sub(b Allocs) Allocs  { return Allocs{a.N - b.N, a.Bytes - b.Bytes} }
func (a Allocs) div(d float64) Allocs { return Allocs{a.N / d, a.Bytes / d} }

// Min is testing.AllocsPerRun taking the minimum over the runs, not the
// mean: how many frames a link's buffer pools miss depends on when its
// acks arrive, and that noise only ever adds.
func Min(runs int, f func()) Allocs {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm the pools
	best := Allocs{math.Inf(1), math.Inf(1)}
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best.N = math.Min(best.N, float64(after.Mallocs-before.Mallocs))
		best.Bytes = math.Min(best.Bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return best
}

// SteadyAndOpen splits the allocations of run(n) into the per-iteration
// steady state (the difference between an N- and a 2N-iteration run, so
// set-up cancels) and the fixed cost of the deployment around it (a
// one-iteration run less that iteration).
func SteadyAndOpen(n int, run func(n int)) (perIter, open Allocs) {
	a1 := Min(5, func() { run(n) })
	a2 := Min(5, func() { run(2 * n) })
	perIter = a2.sub(a1).div(float64(n))
	return perIter, Min(5, func() { run(1) }).sub(perIter)
}

// Check holds a measurement to a pinned value plus the benchmark's bound;
// counts that round to a handful per iteration get a floor of 0.1
// allocations (8 bytes) on top. Zero pinned bytes pin the count alone.
func Check(t *testing.T, what string, got, pinned Allocs) {
	t.Helper()
	limit := Allocs{N: math.Max(pinned.N*(1+slack), pinned.N+0.1)}
	if pinned.Bytes > 0 {
		limit.Bytes = math.Max(pinned.Bytes*(1+slack), pinned.Bytes+8)
	}
	AtMost(t, what, got, limit)
}

// AtMost fails the test when a measurement exceeds the limit in count or,
// where the limit names any, in bytes. The measurement is logged either
// way, and held to nothing under the race detector, whose runtime drops
// sync.Pool entries at random.
func AtMost(t *testing.T, what string, got, limit Allocs) {
	t.Helper()
	t.Logf("%s: %.2f allocations, %.0f B (limit %.2f, %.0f B)", what, got.N, got.Bytes, limit.N, limit.Bytes)
	if raceEnabled {
		return
	}
	if got.N > limit.N {
		t.Errorf("%s: %.2f allocations, limit %.2f", what, got.N, limit.N)
	}
	if limit.Bytes > 0 && got.Bytes > limit.Bytes {
		t.Errorf("%s: %.0f bytes allocated, limit %.0f", what, got.Bytes, limit.Bytes)
	}
}
