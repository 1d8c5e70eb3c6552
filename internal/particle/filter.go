// Package particle implements the paper's application 2: a particle filter
// that tracks crack-failure length in turbine-engine blades (after Orchard
// et al.). Particles recursively estimate the unknown state from noisy
// observations through three steps per iteration:
//
//	E — estimate the current state by propagating particles through the
//	    state-transition model,
//	U — update particle weights with the external observation and the
//	    observation model,
//	S — select (resample) particles for the next iteration, with new
//	    samples replicating old ones with multiplicities proportional to
//	    their weights.
//
// Every step parallelizes over particles except resampling. The
// distributed implementation (Distributed) follows the paper's scheme:
// local partial weight sums are exchanged first (fixed size — SPI_static),
// then each PE resamples locally, then excess new particles migrate
// between PEs so every PE again holds N/n particles (run-time-varying
// size — SPI_dynamic).
package particle

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/signal"
)

// Model is the crack-growth state-space model shared by truth generation
// (package signal) and the filter.
type Model struct {
	P signal.CrackParams
}

// Propagate applies the state transition to a crack length with process
// noise drawn from rng.
func (m Model) Propagate(a float64, rng *signal.RNG) float64 {
	growth := m.P.C * math.Pow(math.Sqrt(a), m.P.M)
	next := a + growth*(1+m.P.ProcessNoise*rng.NormFloat64())
	if next < m.P.A0 {
		next = m.P.A0
	}
	return next
}

// Likelihood returns the observation likelihood N(y; a, MeasureNoise).
func (m Model) Likelihood(y, a float64) float64 {
	s := m.P.MeasureNoise
	d := (y - a) / s
	return math.Exp(-0.5*d*d) / (s * math.Sqrt(2*math.Pi))
}

// Filter is a serial bootstrap particle filter.
type Filter struct {
	model     Model
	particles []float64
	weights   []float64
	rng       *signal.RNG
}

// NewFilter creates a filter with n particles initialized at the model's
// initial crack length (with a little jitter so resampling has diversity).
func NewFilter(model Model, n int, seed uint64) (*Filter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("particle: %d particles", n)
	}
	f := &Filter{
		model:     model,
		particles: make([]float64, n),
		weights:   make([]float64, n),
		rng:       signal.NewRNG(seed),
	}
	for i := range f.particles {
		f.particles[i] = model.P.A0 * (1 + 0.05*f.rng.NormFloat64())
		if f.particles[i] < model.P.A0 {
			f.particles[i] = model.P.A0
		}
		f.weights[i] = 1
	}
	return f, nil
}

// Step performs one E-U-S iteration against an observation and returns the
// weighted state estimate (computed after the update, before selection).
func (f *Filter) Step(observation float64) float64 {
	// E: propagate.
	for i, a := range f.particles {
		f.particles[i] = f.model.Propagate(a, f.rng)
	}
	// U: weight update.
	var sum float64
	for i, a := range f.particles {
		f.weights[i] = f.model.Likelihood(observation, a)
		sum += f.weights[i]
	}
	est := Estimate(f.particles, f.weights, sum)
	// S: select via systematic resampling.
	f.particles = SystematicResample(nil, f.particles, f.weights, sum, len(f.particles), f.rng)
	for i := range f.weights {
		f.weights[i] = 1
	}
	return est
}

// Estimate returns the weighted mean of particles; with a zero weight sum
// it falls back to the unweighted mean (all particles equally implausible).
func Estimate(particles, weights []float64, sum float64) float64 {
	if sum <= 0 {
		var s float64
		for _, a := range particles {
			s += a
		}
		return s / float64(len(particles))
	}
	var s float64
	for i, a := range particles {
		s += a * weights[i]
	}
	return s / sum
}

// SystematicResample draws `count` particles from the weighted set using
// systematic (stratified comb) resampling: new samples are exact replicas
// of old samples with multiplicities proportional to their weights — the
// selection scheme the paper describes. With a zero weight sum it copies
// particles cyclically. The draw is written to dst, which is reused when
// it has the capacity and must not overlap particles.
func SystematicResample(dst, particles, weights []float64, sum float64, count int, rng *signal.RNG) []float64 {
	out := slices.Grow(dst[:0], count)[:count]
	if sum <= 0 {
		for i := range out {
			out[i] = particles[i%len(particles)]
		}
		return out
	}
	step := sum / float64(count)
	u := rng.Float64() * step
	var cum float64
	j := 0
	for i := 0; i < count; i++ {
		target := u + float64(i)*step
		for cum+weights[j] < target && j < len(weights)-1 {
			cum += weights[j]
			j++
		}
		out[i] = particles[j]
	}
	return out
}

// RMSE returns the root-mean-square error between estimates and truth.
func RMSE(estimates, truth []float64) float64 {
	n := len(estimates)
	if len(truth) < n {
		n = len(truth)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := estimates[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}
