package main

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/spi"
)

// Hang and fault guards. Every distributed execution runs under a context
// deadline and the progress watchdog, so a wedge ends the round with an
// error naming the starved actors, and every coordinator under an epoch
// timeout; calls that take none of these (particle steps) are covered by
// the process watchdog in runWorkload, which names the phase it fired in.
const (
	roundDeadline = 30 * time.Second
	stallTimeout  = 5 * time.Second
	warmUp        = time.Second
	// probesPerRound cold starts follow every round: set-up is measured
	// several times in a run and reported as the median.
	probesPerRound = 3
)

// env is what a workload sees of the run.
type env struct {
	seed   uint64
	scale  float64 // multiplies every frozen unit count (smoke test: 0.01)
	outDir string  // shm segments and traces
	m      *meter
	// cal measures the machine before and after every round
	// (calibrate.go). With normalise set, in the untraced run, the round's
	// time-based samples are reported at the reference speed; the traced
	// run reports raw times, which its rungs are compared with, and the
	// slowdown beside them.
	cal       *calibrator
	normalise bool
	// obs is non-nil during a traced round: the program's own metrics
	// registry and trace ring, handed to every layer that takes one.
	obs *obs.Observer
	// tr is the benchmark's own span recorder; nil (a no-op) with tracing
	// off.
	tr *tracer
	// phase is what the run is doing, for the process watchdog to name.
	phase atomic.Pointer[string]
}

func (e *env) setPhase(s string) { e.phase.Store(&s) }

// units scales a frozen per-round unit count.
func (e *env) units(frozen int) int { return max(1, int(float64(frozen)*e.scale)) }

// roundStats is one round's outcome plus the counts the layers kept
// while it ran.
type roundStats struct {
	attempted, failed int

	spi            spi.EdgeStats // summed over edges and nodes
	firings        int64
	localTransfers int64
}

// failedRound is the outcome of a round or probe of n units that ended in
// an error: every unit counts as failed.
func failedRound(n int, err error) (roundStats, error) {
	return roundStats{attempted: n, failed: n}, err
}

// addExec folds the nodes' execution statistics in. Data messages are
// counted on the sending node and acks on the receiving one, so summing
// nodes does not double count.
func (rs *roundStats) addExec(stats ...*spi.ExecStats) {
	for _, st := range stats {
		if st == nil {
			continue
		}
		rs.addEdges(st.SPI)
		rs.localTransfers += st.LocalTransfers
		for _, n := range st.ActorFirings {
			rs.firings += int64(n)
		}
	}
}

func (rs *roundStats) addEdges(st spi.EdgeStats) {
	rs.spi.Messages += st.Messages
	rs.spi.PayloadBytes += st.PayloadBytes
	rs.spi.WireBytes += st.WireBytes
	rs.spi.Acks += st.Acks
	rs.spi.AckBytes += st.AckBytes
	rs.spi.AcksPiggybacked += st.AcksPiggybacked
	rs.spi.AcksSuppressed += st.AcksSuppressed
	rs.spi.CreditWaits += st.CreditWaits
	rs.spi.MaxQueued = max(rs.spi.MaxQueued, st.MaxQueued)
}

func (rs *roundStats) add(o roundStats) {
	rs.attempted += o.attempted
	rs.failed += o.failed
	rs.addEdges(o.spi)
	rs.localTransfers += o.localTransfers
	rs.firings += o.firings
}

// workload is one closed-loop application run, built on a fresh
// deployment every time the way the CLI builds it.
type workload interface {
	// init makes the inputs from the seed and computes the references.
	init(e *env) error
	// round sets a deployment up, pushes the workload's frozen number of
	// units through it, verifies every output against the reference and
	// tears the deployment down. The harness times it and repeats it for
	// the run's duration. It reports unit latencies to e.m.
	round(e *env) (roundStats, error)
	// probe is a cold start: the same set-up, then the least work that
	// yields a verified unit. It reports the time from its start to that
	// unit to e.m.setup.
	probe(e *env) (roundStats, error)
	// ladder times the workload's layers one rung at a time.
	ladder(e *env, l *ladder) error
	close()
}

// roundSample is one measured round, per unit. slowdown is the machine's
// around the round; with env.normalise unitsPerS and cpuUS are at the
// reference speed.
type roundSample struct {
	unitsPerS, cpuUS, allocBytes, allocs, slowdown float64
}

// runResult is the result line.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	trace    bool
	outDir   string    // traces and shm segments
	log      io.Writer // human-readable report
}

// timedRound runs one round between two counter snapshots, then the
// round's cold-start probes (outside the snapshots: a probe is set-up,
// and set-up has its own metric).
func timedRound(w workload, e *env) (roundSample, roundStats, error) {
	// The machine is measured on both sides of the round: the round's
	// samples and unit latencies go by the mean, the set-up probes after
	// it by the second measurement.
	before, err := e.cal.slowdown()
	if err != nil {
		return roundSample{}, roundStats{}, fmt.Errorf("calibration: %w", err)
	}
	id := e.tr.begin("round", 0)
	c0 := readCounters()
	rs, err := w.round(e)
	c1 := readCounters()
	e.tr.end(id, "units", float64(rs.attempted))
	after, calErr := e.cal.slowdown()
	if calErr != nil {
		return roundSample{}, rs, fmt.Errorf("calibration: %w", calErr)
	}
	slow, scale := (before+after)/2, 1.0
	if e.normalise {
		e.m.slow, scale = after, slow
	}
	good := rs.attempted - rs.failed
	u := float64(max(good, 1))
	s := roundSample{
		unitsPerS:  float64(good) / c1.at.Sub(c0.at).Seconds() * scale,
		cpuUS:      float64((c1.cpu - c0.cpu).Microseconds()) / u / scale,
		allocBytes: float64(c1.allocBytes-c0.allocBytes) / u,
		allocs:     float64(c1.allocs-c0.allocs) / u,
		slowdown:   slow,
	}
	for i := 0; i < probesPerRound && err == nil; i++ {
		id := e.tr.begin("probe", 0)
		var ps roundStats
		ps, err = w.probe(e)
		e.tr.end(id)
		rs.attempted += ps.attempted
		rs.failed += ps.failed
	}
	e.m.closeRound(scale)
	return s, rs, err
}

// runWorkload is one benchmark run: one workload, in this process.
func runWorkload(cfg runConfig) (*runResult, error) {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	e := &env{seed: cfg.seed, scale: cfg.scale, outDir: cfg.outDir, m: newMeter(), normalise: !cfg.trace}
	e.setPhase("init")
	guard := time.AfterFunc(warmUp+window+60*time.Second, func() {
		fmt.Fprintf(os.Stderr, "bench: watchdog: workload %s wedged in phase %q\n", cfg.workload, *e.phase.Load())
		os.Exit(3)
	})
	defer guard.Stop()

	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if e.cal, err = newCalibrator(); err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	defer e.cal.close()
	w := spec.make(spec.unitsPerRound)
	if err := w.init(e); err != nil {
		return nil, fmt.Errorf("%s: init: %w", cfg.workload, err)
	}
	defer w.close()

	e.setPhase("warm-up")
	for t0 := time.Now(); time.Since(t0) < min(warmUp, window/4); {
		if _, _, err := timedRound(w, e); err != nil {
			return nil, fmt.Errorf("%s: warm-up round: %w", cfg.workload, err)
		}
	}
	e.m.reset()

	var total roundStats
	var firstErr error
	fail := func(err error) {
		if err == nil {
			return
		}
		if firstErr == nil {
			firstErr = err
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
	}
	got := map[string]float64{}
	defs := endToEnd
	start := readCounters()
	if !cfg.trace {
		e.setPhase("timed window")
		var samples []roundSample
		for time.Since(start.at) < window {
			s, rs, err := timedRound(w, e)
			fail(err)
			total.add(rs)
			samples = append(samples, s)
		}
		endToEndMetrics(got, samples, e.m)
		slow := median(column(samples, func(s roundSample) float64 { return s.slowdown }))
		fmt.Fprintf(cfg.log, "machine slowdown %.3f (median of %d rounds): times below are at the reference speed, %.4f us CPU per unit at the machine's own\n",
			slow, len(samples), got["cpu_us_per_unit"]*slow)
	} else {
		// Half the window for workload rounds with the observer off and
		// on, half for the ladder's rungs.
		defs = perLayer
		e.tr = newTracer()
		l := &ladder{e: e, got: got, budget: window / 2}
		e.setPhase("traced rounds")
		tracedRounds(w, e, window/2, &total, l, fail)
		e.setPhase("ladder")
		l.span = e.tr.begin("ladder", 0)
		fail(w.ladder(e, l))
		e.tr.end(l.span)
		l.finish(spec.name, cfg.log)
		harnessMetrics(got, start, e.m, total)
		if err := e.tr.write(e.outDir + "/" + cfg.workload + ".trace.json"); err != nil {
			return nil, err
		}
	}
	if total.attempted == 0 {
		return nil, fmt.Errorf("%s: no unit attempted", cfg.workload)
	}
	res := &runResult{
		Correct:   total.failed == 0 && firstErr == nil,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   fill(defs, got),
	}
	report(cfg.log, cfg.workload, defs, res)
	return res, nil
}

// endToEndMetrics reduces the timed window to the seven end-to-end
// numbers: medians over rounds and probes, so one preempted round does
// not move them.
func endToEndMetrics(got map[string]float64, samples []roundSample, m *meter) {
	got["units_per_s"] = median(column(samples, func(s roundSample) float64 { return s.unitsPerS }))
	got["cpu_us_per_unit"] = median(column(samples, func(s roundSample) float64 { return s.cpuUS }))
	got["alloc_bytes_per_unit"] = median(column(samples, func(s roundSample) float64 { return s.allocBytes }))
	got["allocs_per_unit"] = median(column(samples, func(s roundSample) float64 { return s.allocs }))
	got["latency_p50_us"] = median(column(m.rounds, func(r roundLatency) float64 { return r.p50 })) / 1e3
	got["setup_s"] = median(append([]float64(nil), m.setups...))
	// A failed read leaves 0, which the smoke test rejects.
	got["peak_rss_mb"], _ = peakRSSMiB()
}

// column picks one number out of every round's sample.
func column[S any](samples []S, f func(S) float64) []float64 {
	vs := make([]float64, len(samples))
	for i, s := range samples {
		vs[i] = f(s)
	}
	return vs
}

// harnessMetrics are the traced run's diagnostics about the run itself.
func harnessMetrics(got map[string]float64, start counters, m *meter, total roundStats) {
	end := readCounters()
	got["latency_p99_us"] = median(column(m.rounds, func(r roundLatency) float64 { return r.p99 })) / 1e3
	got["latency_loaded_p50_us"] = median(column(m.rounds, func(r roundLatency) float64 { return r.loadedP50 })) / 1e3
	for _, r := range m.rounds {
		got["latency_samples"] += float64(r.samples)
	}
	got["wall_s"] = end.at.Sub(start.at).Seconds()
	got["gc_cycles"] = float64(end.gcCycles - start.gcCycles)
	got["gc_pause_ms"] = float64((end.gcPause - start.gcPause).Microseconds()) / 1e3
	if total.attempted > 0 {
		got["failed_share"] = float64(total.failed) / float64(total.attempted)
	}
}

// report prints the run for a reader: every metric by name with its unit.
func report(w io.Writer, name string, defs []metricDef, res *runResult) {
	fmt.Fprintf(w, "workload %s: %d units attempted, %d failed, correct=%v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}
