package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// counters is a snapshot of the process-wide costs a round is charged
// with. One workload runs per process, so the deltas are that workload's.
type counters struct {
	at         time.Time
	cpu        time.Duration // getrusage user+sys
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readCounters() counters {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// meter collects what a workload reports from inside its rounds and
// probes: set-up samples (one per cold start), the unit latency the
// end-to-end metric is made of, and, where a workload stamps single units
// inside a loaded stream, that loaded latency as a diagnostic. Kernel
// wrappers and client goroutines record concurrently, hence the atomics.
type meter struct {
	// slow is the machine's slowdown for the probes under way
	// (calibrate.go); the harness sets it while no workload goroutine runs.
	slow   float64
	setups []float64 // seconds, at the reference speed
	lat    reservoir
	loaded reservoir
	rounds []roundLatency
}

// roundLatency is what one round and its probes recorded, in nanoseconds.
// A run reports medians over its rounds, so a round that ran beside a
// burst of something else, or whose slowdown was mismeasured, moves
// nothing.
type roundLatency struct {
	p50, p99, loadedP50 float64
	samples             int
}

// reservoir is a fixed, preallocated sample store that holds one round's
// samples, so the harness's own memory stays out of peak_rss_mb and the
// alloc metrics; workloads stride their sampling to about latPerRound
// samples a round and samples past the capacity are dropped.
type reservoir struct {
	ns []int64
	n  atomic.Int64
}

const (
	latCap      = 1 << 14
	latPerRound = 2048
)

func newMeter() *meter {
	return &meter{slow: 1, lat: reservoir{ns: make([]int64, latCap)}, loaded: reservoir{ns: make([]int64, latCap)}}
}

func (r *reservoir) add(d time.Duration) {
	if i := r.n.Add(1) - 1; i < int64(len(r.ns)) {
		r.ns[i] = int64(d)
	}
}

// drain copies the samples out, in nanoseconds, and empties the store.
func (r *reservoir) drain() []float64 {
	out := make([]float64, min(r.n.Swap(0), int64(len(r.ns))))
	for i := range out {
		out[i] = float64(r.ns[i])
	}
	return out
}

// unitLatency records one unit's latency.
func (m *meter) unitLatency(d time.Duration) { m.lat.add(d) }

// loadedLatency records a unit's latency inside a loaded stream.
func (m *meter) loadedLatency(d time.Duration) { m.loaded.add(d) }

// closeRound reduces the samples recorded since the last call to one
// roundLatency, put at the reference speed by dividing by slow. The
// harness calls it after a round's probes, while no workload goroutine
// runs. A round that recorded no unit latency leaves nothing.
func (m *meter) closeRound(slow float64) {
	lat, loaded := m.lat.drain(), m.loaded.drain()
	if len(lat) == 0 {
		return
	}
	m.rounds = append(m.rounds, roundLatency{
		p50:       median(lat) / slow,
		p99:       percentile(lat, 99) / slow,
		loadedP50: median(loaded) / slow,
		samples:   len(lat),
	})
}

// setup records a cold start's time to its first verified unit, at the
// reference speed. Probes run one at a time, so the append is unshared.
func (m *meter) setup(d time.Duration) {
	m.setups = append(m.setups, d.Seconds()/m.slow)
}

// A cold call on the LPC streams mostly waits for timers (batch deadlines,
// dial back-off, shm rendezvous polling), which the machine's state does
// not slow: measured raw, its set-up time is the same in both states, where
// the other workloads' grows by the full slowdown. waitingSetup records
// such a call as it was.
func (m *meter) waitingSetup(d time.Duration) { m.setups = append(m.setups, d.Seconds()) }

// reset drops everything recorded so far (end of warm-up).
func (m *meter) reset() {
	m.setups = m.setups[:0]
	m.rounds = m.rounds[:0]
	m.lat.n.Store(0)
	m.loaded.n.Store(0)
}

// stride picks every how-manyth of n units to latency-sample.
func stride(n int) int { return max(1, n/latPerRound) }

// median of vs; 0 for none. vs is reordered.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sort.Float64s(vs)
	return (vs[(n-1)/2] + vs[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of vs; 0 for none. vs is
// reordered.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(math.Ceil(float64(len(vs))*p/100)) - 1
	return vs[min(max(i, 0), len(vs)-1)]
}

// clients is the closed-loop load generator's width: min(nproc, 4).
func clients() int { return min(runtime.NumCPU(), 4) }
