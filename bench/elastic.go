package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/demo"
	"repro/internal/orch"
	"repro/internal/spi"
	"repro/internal/transport"
)

// elastic_loopback: what spictl -inproc 3 does. A coordinator and three
// workers over the in-memory transport run the orchbench graph (three
// actors, 32-byte tokens) in epochs of 64 iterations: fault-free, no
// forced placement, no kills. What it prices is the per-epoch
// rendezvous, dispatch and checkpoint.
const (
	elasticGraph = `graph orchbench
actor src 1
actor fir 1
actor snk 1
edge sf src fir 1 1 bytes=32 delay=1
edge fs fir snk 1 1 bytes=32
`
	elasticEpochIters = 64
	elasticWorkers    = 3
	epochTimeout      = 10 * time.Second
)

type elasticWorkload struct {
	iters int // per round, at scale 1

	d         *demoGraph
	n         int // whole epochs only, so every round commits the same number
	want      map[string]uint64
	probeWant map[string]uint64 // of a single epoch

	// What the traced run keeps: epoch and registration times in
	// milliseconds, and the coordinator's reports summed over rounds.
	epochMS, registerMS []float64
	rep                 orch.Report
	elasticWall         time.Duration
}

func (w *elasticWorkload) init(e *env) error {
	d, err := newDemoGraph(elasticGraph, []int{0, 1, 2}, nil, e.seed)
	if err != nil {
		return err
	}
	w.d, w.n = d, max(1, e.units(w.iters)/elasticEpochIters)*elasticEpochIters
	if w.want, err = d.reference(w.n); err != nil {
		return err
	}
	w.probeWant, err = d.reference(elasticEpochIters)
	return err
}

func (w *elasticWorkload) close() {}

func (w *elasticWorkload) round(e *env) (roundStats, error) { return w.run(e, w.n, w.want, true) }

// probe registers a fresh pool and commits one epoch.
func (w *elasticWorkload) probe(e *env) (roundStats, error) {
	t0 := time.Now()
	rs, err := w.run(e, elasticEpochIters, w.probeWant, false)
	if err == nil {
		e.m.setup(time.Since(t0))
	}
	return rs, err
}

// run starts three workers and a coordinator, executes iters iterations
// and checks the folded sink digests against the static run's. With
// sample set, the gap between consecutive epoch dispatches is the unit
// latency.
func (w *elasticWorkload) run(e *env, iters int, want map[string]uint64, sample bool) (roundStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), roundDeadline)
	tr := transport.NewLoopback()
	const coordAddr = "bench-coord"
	workerErrs := make([]error, elasticWorkers)
	var wg sync.WaitGroup
	// Whatever ends the run, cancel releases the workers and wg waits
	// until each has gone.
	defer wg.Wait()
	defer cancel()
	for i := 0; i < elasticWorkers; i++ {
		wk, err := orch.NewWorker(orch.WorkerConfig{
			Transport: tr, Coord: coordAddr, Name: fmt.Sprintf("w%d", i),
			Kernels: func(spec *spi.PartitionSpec) (*orch.KernelSet, error) {
				kernels, sinks := demo.PartKernels(spec, w.d.seed)
				return &orch.KernelSet{Kernels: kernels, Collect: sinks.Take}, nil
			},
			Retry: transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			Obs:   e.obs,
		})
		if err != nil {
			return failedRound(iters, err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = wk.Run(ctx)
		}(i)
	}
	traced := sample && e.tr != nil
	start := time.Now()
	last := start
	s := stride(iters / elasticEpochIters)
	coord, err := orch.NewCoordinator(orch.CoordConfig{
		Transport: tr, Addr: coordAddr, Graph: w.d.g, Mapping: w.d.m,
		Iterations: iters, EpochIters: elasticEpochIters, MinWorkers: elasticWorkers,
		EpochTimeout: epochTimeout, Obs: e.obs,
		// Called on the coordinator's goroutine after each epoch's tasks
		// are sent: the gap between consecutive calls is one epoch.
		OnDispatch: func(epoch int) {
			now := time.Now()
			switch {
			case !sample:
			case epoch == 0:
				if traced {
					w.registerMS = append(w.registerMS, float64(now.Sub(start).Microseconds())/1e3)
				}
			default:
				if epoch%s == 0 {
					e.m.unitLatency(now.Sub(last))
				}
				if traced {
					w.epochMS = append(w.epochMS, float64(now.Sub(last).Microseconds())/1e3)
					e.tr.at("epoch", 0, last, now)
				}
			}
			last = now
		},
	})
	if err != nil {
		return failedRound(iters, err)
	}
	rep, err := coord.Run(ctx)
	wall := time.Since(start)
	if err != nil {
		return failedRound(iters, err)
	}
	wg.Wait() // the coordinator's shutdown sends every worker home
	for i, werr := range workerErrs {
		if werr != nil {
			return failedRound(iters, fmt.Errorf("worker w%d: %w", i, werr))
		}
	}
	if rep.Iterations != iters {
		return failedRound(iters, fmt.Errorf("committed %d of %d iterations", rep.Iterations, iters))
	}
	for name, d := range want {
		if rep.Digests[name] != d {
			return failedRound(iters, fmt.Errorf("sink %s digest %016x, static reference %016x", name, rep.Digests[name], d))
		}
	}
	rs := roundStats{attempted: iters}
	for _, n := range rep.Firings {
		rs.firings += int64(n)
	}
	if traced {
		w.rep.Iterations += rep.Iterations
		w.rep.Epochs += rep.Epochs
		w.rep.Aborts += rep.Aborts
		w.rep.Migrations += rep.Migrations
		w.rep.StalledTokens += rep.StalledTokens
		w.elasticWall += wall
	}
	return rs, nil
}

func (w *elasticWorkload) ladder(e *env, l *ladder) error {
	// The static run of the same iterations, in this process: spi.Execute
	// with the real kernels, what -verify compares against.
	ks, _, err := w.d.kernels()
	if err != nil {
		return err
	}
	ns, _, err := l.rung("spi.Execute (static)", elasticEpochIters*20, func(n int) error {
		_, err := spi.Execute(w.d.g, w.d.m, ks, n)
		return err
	})
	if err != nil {
		return err
	}
	static := 1e9 / ns
	l.set("orch.static_units_per_s", static)
	if elastic := l.got["ladder.measured_ns_per_unit"]; elastic > 0 {
		l.set("orch.elastic_over_static", ns/elastic)
	}
	l.set("orch.epoch_ms_p50", median(w.epochMS))
	l.set("orch.register_ms", median(w.registerMS))
	l.set("orch.epochs", float64(w.rep.Epochs))
	l.set("orch.aborts", float64(w.rep.Aborts))
	l.set("orch.migrations", float64(w.rep.Migrations))
	l.set("orch.stalled_tokens", float64(w.rep.StalledTokens))
	if w.rep.Epochs > 0 {
		staticWall := float64(w.rep.Iterations) / static
		overhead := (w.elasticWall.Seconds() - staticWall) / float64(w.rep.Epochs)
		l.set("orch.epoch_overhead_ms", overhead*1e3)
		l.set("ladder.orch_ns_per_unit", overhead*1e9/elasticEpochIters)
	}

	if err := w.d.ladder(l); err != nil {
		return err
	}
	return l.transportRungs(loopbackCarrier, w.d.shape, linkTune{})
}
