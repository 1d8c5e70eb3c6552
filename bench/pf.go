package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/particle"
	"repro/internal/signal"
	"repro/internal/spi"
)

// pf_chan: the crack-length particle filter (application 2) at the
// paper's scale, 256 particles on 2 PEs, one Step per observation as
// spirun -app crack runs it. It uses the raw spi.Runtime (24-byte
// SPI_static sums, variable SPI_dynamic migrations, a barrier every
// step) with no executor and no transport, so it is latency-bound.
const (
	pfParticles = 256
	pfPEs       = 2
)

type pfWorkload struct {
	steps int // per round, at scale 1

	model particle.Model
	truth []float64
	obs   []float64
	want  []float64 // estimates of the reference run
	seed  uint64
	got   []float64
}

func (w *pfWorkload) init(e *env) error {
	n := e.units(w.steps)
	p := signal.DefaultCrackParams()
	w.model = particle.Model{P: p}
	w.truth = signal.CrackTruth(n, p, e.seed)
	w.obs = signal.CrackObservations(w.truth, p, e.seed+1)
	w.seed = e.seed + 2
	w.got = make([]float64, n)
	// The reference is a second run with the same seed: the filter is
	// deterministic, so every round must reproduce it bit for bit, and it
	// must track the truth to within the observation noise.
	d, err := particle.NewDistributed(w.model, pfParticles, pfPEs, w.seed)
	if err != nil {
		return err
	}
	if w.want, err = d.Run(w.obs); err != nil {
		return err
	}
	if rmse := particle.RMSE(w.want, w.truth); !(rmse <= p.MeasureNoise) {
		return fmt.Errorf("reference run tracks with RMSE %.4f, above the observation noise %.2f", rmse, p.MeasureNoise)
	}
	return nil
}

func (w *pfWorkload) close() {}

func (w *pfWorkload) round(e *env) (roundStats, error) { return w.run(e, len(w.obs), true) }

// probe is a fresh filter's first step.
func (w *pfWorkload) probe(e *env) (roundStats, error) {
	t0 := time.Now()
	rs, err := w.run(e, 1, false)
	if err == nil {
		e.m.setup(time.Since(t0))
	}
	return rs, err
}

// run builds a fresh filter, steps it through the first n observations
// and compares every estimate with the reference run's.
func (w *pfWorkload) run(e *env, n int, sample bool) (roundStats, error) {
	d, err := particle.NewDistributed(w.model, pfParticles, pfPEs, w.seed)
	if err != nil {
		return failedRound(n, err)
	}
	s := stride(n)
	for i, y := range w.obs[:n] {
		t0 := time.Now()
		est, err := d.Step(y)
		if err != nil {
			return failedRound(n, fmt.Errorf("step %d: %w", i, err))
		}
		if sample && i%s == 0 {
			e.m.unitLatency(time.Since(t0))
		}
		w.got[i] = est
	}
	rs := roundStats{attempted: n, spi: d.Stats()}
	for i := range w.got[:n] {
		if math.Float64bits(w.got[i]) != math.Float64bits(w.want[i]) {
			rs.failed++
			if err == nil {
				err = fmt.Errorf("step %d estimate %g, reference run %g", i, w.got[i], w.want[i])
			}
		}
	}
	return rs, err
}

// ladder has two rungs: the serial filter (the same estimate, update and
// resampling arithmetic with no PEs to exchange between) and the two edge
// kinds every step crosses, at their measured sizes. There is no
// executor, no slab and no transport on this path.
func (w *pfWorkload) ladder(e *env, l *ladder) error {
	f, err := particle.NewFilter(w.model, pfParticles, w.seed)
	if err != nil {
		return err
	}
	i := 0
	ns, _, err := l.rung("particle.Filter.Step", 2000, func(n int) error {
		for end := i + n; i < end; i++ {
			f.Step(w.obs[i%len(w.obs)])
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("kernel.ns_per_unit", ns)
	if err := l.once("plan.build_us", func() error {
		_, err := particle.NewDistributed(w.model, pfParticles, pfPEs, w.seed)
		return err
	}); err != nil {
		return err
	}

	// Per step and PE pair: one 24-byte SPI_static sum under BBS and one
	// SPI_dynamic migration under UBS; the measured mean payload is over
	// both, so the migrations' own mean is what the sums leave.
	sums := spi.EdgeConfig{ID: 0, Mode: spi.Static, PayloadBytes: 24, Protocol: spi.BBS, Capacity: 2}
	migs := spi.EdgeConfig{ID: 1, Mode: spi.Dynamic, MaxBytes: 8 * pfParticles, Protocol: spi.UBS}
	migBytes := min(max(int(2*l.meanPayload)-24, 0), migs.MaxBytes)
	sumNS, sumAllocs, err := l.edgeRung("spi.Runtime edge (sums)", sums, 24)
	if err != nil {
		return err
	}
	migNS, migAllocs, err := l.edgeRung("spi.Runtime edge (migrations)", migs, migBytes)
	if err != nil {
		return err
	}
	l.set("spi.edge_ns_per_msg", (sumNS+migNS)/2)
	l.set("spi.edge_allocs_per_msg", (sumAllocs+migAllocs)/2)
	l.block = 1
	return nil
}
