package particle

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/dataflow"
	"repro/internal/signal"
	"repro/internal/spi"
)

// Distributed is the paper's n-PE particle filter. Particles are equally
// distributed among PEs; all steps execute in parallel and PEs communicate
// only during resampling, which splits into three sub-steps (paper §5.3):
//
//  1. calculate a partial (weight) sum and communicate it to the other PEs
//     — fixed-length message, SPI_static;
//  2. local resampling against the globally agreed per-PE offspring quota;
//  3. intra-resampling: excess new particle values are communicated to
//     deficit PEs so all PEs again hold N/n particles — the message length
//     varies at run time, so SPI_dynamic is used.
//
// The filter runs FilterSystem's graph on the executor core: each PE is
// one processor firing three kernels in order — eu (estimate, update, the
// partial sums), rs (the global estimate and local resampling) and xs (the
// imports) — and every Step fires one iteration of a standing one-node
// deployment. Per-edge statistics are exposed through Stats.
type Distributed struct {
	model      Model
	pes, perPE int

	peState []peFilter
	run     *spi.PartitionRun
	steps   int
	y, est  float64 // the observation of the step being fired, PE 0's estimate

	// adaptive resampling (ESS-gated): see SetResampleThreshold.
	adaptive     bool
	resampleFrac float64
	resamplings  int64
}

// peFilter is one PE's kernel state: the particles it carries from step to
// step and what its actors hand each other within one.
type peFilter struct {
	particles, weights []float64
	rng                *signal.RNG
	// Every PE's partial weight, weighted-state and squared-weight sums, in
	// PE order: eu fills this PE's entry, rs the others'.
	sums, weighted, sumSqs []float64
	// spare is the second particle buffer: rs resamples into it, and once
	// xs has appended the imports it becomes the particles. resampled is
	// the adaptive gate's verdict.
	spare     []float64
	resampled bool
	// rs's scratch, one entry per PE: the offspring quotas, their
	// remainders, and this PE's row of the migration plan.
	quota, plan []int
	fracs       []float64
}

// filterGraph is FilterSystem's graph for one (particles, PEs) shape, with
// every PE's edges and the one-node spec compiled from it.
type filterGraph struct {
	sys  *spi.System
	pe   []peEdges
	spec *spi.PartitionSpec
}

// graphs caches the compiled filter per [2]int{particles, PEs}: every
// filter of one shape runs the same spec, which a deployment only reads.
var graphs sync.Map

func compiledGraph(particles, pes int) (*filterGraph, error) {
	key := [2]int{particles, pes}
	if fg, ok := graphs.Load(key); ok {
		return fg.(*filterGraph), nil
	}
	sys, edges, err := filterSystem(DefaultDeploy(particles, pes), nil)
	if err != nil {
		return nil, err
	}
	spec, err := spi.BuildPartition(sys.Graph, sys.Mapping, make([]int, pes), 1, 0, 0, false)
	if err != nil {
		return nil, err
	}
	fg, _ := graphs.LoadOrStore(key, &filterGraph{sys: sys, pe: edges, spec: spec})
	return fg.(*filterGraph), nil
}

// NewDistributed creates an n-PE filter over nParticles total. nParticles
// must divide evenly among PEs (the paper's equal distribution).
func NewDistributed(model Model, nParticles, pes int, seed uint64) (*Distributed, error) {
	d, fg, err := newDistributed(model, nParticles, pes, seed)
	if err != nil {
		return nil, err
	}
	ks := d.kernels(fg, func(int) float64 { return d.y }, func(_ int, est float64) { d.est = est })
	if d.run, err = spi.OpenPartition(fg.spec, ks, spi.DistOptions{}); err != nil {
		return nil, err
	}
	return d, nil
}

// newDistributed sets up the filter's state, without a deployment.
func newDistributed(model Model, nParticles, pes int, seed uint64) (*Distributed, *filterGraph, error) {
	fg, err := compiledGraph(nParticles, pes) // validates the shape
	if err != nil {
		return nil, nil, err
	}
	d := &Distributed{model: model, pes: pes, perPE: nParticles / pes}
	for p := 0; p < pes; p++ {
		pf := peFilter{
			particles: make([]float64, d.perPE),
			weights:   make([]float64, d.perPE),
			rng:       signal.NewRNG(seed + uint64(p)*0x9E37),
			sums:      make([]float64, pes),
			weighted:  make([]float64, pes),
			sumSqs:    make([]float64, pes),
			quota:     make([]int, pes),
			plan:      make([]int, pes),
			fracs:     make([]float64, pes),
		}
		for i := range pf.particles {
			pf.particles[i] = model.P.A0 * (1 + 0.05*pf.rng.NormFloat64())
			if pf.particles[i] < model.P.A0 {
				pf.particles[i] = model.P.A0
			}
			pf.weights[i] = 1
		}
		d.peState = append(d.peState, pf)
	}
	return d, fg, nil
}

// PEs returns the PE count; PerPE the particles each PE holds.
func (d *Distributed) PEs() int   { return d.pes }
func (d *Distributed) PerPE() int { return d.perPE }

// Stats returns the aggregated SPI traffic so far.
func (d *Distributed) Stats() spi.EdgeStats { return d.run.Traffic() }

// SetResampleThreshold makes the distributed filter adaptive: local
// resampling and particle migration run only when the global effective
// sample size falls below frac * N. All PEs compute the same ESS from the
// exchanged partial sums, so the decision is consistent without extra
// coordination. Skipped iterations still exchange the fixed-size partial
// sums (SPI_static), and their migrations are empty SPI_dynamic tokens:
// the header alone crosses the edge, an adaptive saving on its payload.
func (d *Distributed) SetResampleThreshold(frac float64) {
	d.adaptive = true
	d.resampleFrac = frac
}

// Resamplings returns how many distributed resampling rounds have run.
func (d *Distributed) Resamplings() int64 { return d.resamplings }

// quotas computes into out, identically on every PE, the per-PE offspring
// counts from the partial weight sums using the largest-remainder method:
// counts are proportional to partial sums and total exactly N. fracs is
// scratch; both have an entry per PE.
func quotas(out []int, fracs, partialSums []float64, total int) {
	n := len(partialSums)
	var sum float64
	for _, s := range partialSums {
		sum += s
	}
	if sum <= 0 {
		// Degenerate weights: keep the equal split.
		for i := range out {
			if out[i] = total / n; i < total%n {
				out[i]++
			}
		}
		return
	}
	assigned := 0
	for i, s := range partialSums {
		exact := float64(total) * s / sum
		fl := math.Floor(exact)
		out[i] = int(fl)
		assigned += int(fl)
		fracs[i] = exact - fl
	}
	// Largest remainders get the leftover counts; ties resolve by PE index
	// so all PEs agree.
	for assigned < total {
		best := -1
		for i, f := range fracs {
			if f >= 0 && (best == -1 || f > fracs[best]) {
				best = i
			}
		}
		out[best]++
		fracs[best] = -1
		assigned++
	}
}

// migrationRow writes into row[q] how many particles PE p sends to PE q.
// The plan is decided identically on every PE: each surplus PE's excess
// fills the deficit PEs greedily, both in PE order. A PE reads only its
// own row, so that is all it computes.
func migrationRow(row, quota []int, perPE, p int) {
	clear(row)
	s, d := -1, -1 // the surplus and deficit PE being paired
	have, need := 0, 0
	for {
		for have == 0 {
			if s++; s == len(quota) {
				return
			}
			have = max(quota[s]-perPE, 0)
		}
		for need == 0 {
			if d++; d == len(quota) {
				return
			}
			need = max(perPE-quota[d], 0)
		}
		k := min(have, need)
		if s == p {
			row[d] = k
		}
		have, need = have-k, need-k
	}
}

// kernels builds the three kernels of every PE over fg's graph, keyed by
// actor name: obs gives the observation of an iteration, and PE 0's rs
// hands est the estimate of each. Every actor returns the same output map
// and payload buffers from every firing, which the Kernel contract allows.
func (d *Distributed) kernels(fg *filterGraph, obs func(iter int) float64, est func(iter int, est float64)) map[string]spi.Kernel {
	ks := make(map[string]spi.Kernel, 3*d.pes)
	token := make([]byte, 4) // the eurs, rsxs and loop edges order the actors and carry nothing
	for p := range d.peState {
		pf, e := &d.peState[p], &fg.pe[p]
		sumMsg, mig := make([]byte, 24), make([][]byte, d.pes) // mig by destination PE
		euOut := map[dataflow.EdgeID][]byte{e.eurs: token}
		rsOut := map[dataflow.EdgeID][]byte{e.rsxs: token}
		xsOut := map[dataflow.EdgeID][]byte{e.loop: token}
		for q := range d.pes {
			if q != p {
				euOut[e.sum[q]] = sumMsg
			}
		}

		// E: propagate; U: multiplicative weight update (weights are all 1
		// after a resampling round, so this equals assignment in the default
		// always-resample configuration); then the partial sums.
		ks[fmt.Sprintf("eu%d", p)] = func(iter int, _ map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			y := obs(iter)
			var sum, weighted, sumSq float64
			for i, a := range pf.particles {
				pf.particles[i] = d.model.Propagate(a, pf.rng)
				pf.weights[i] *= d.model.Likelihood(y, pf.particles[i])
				w := pf.weights[i]
				sum += w
				weighted += w * pf.particles[i]
				sumSq += w * w
			}
			pf.sums[p], pf.weighted[p], pf.sumSqs[p] = sum, weighted, sumSq
			binary.LittleEndian.PutUint64(sumMsg, math.Float64bits(sum))
			binary.LittleEndian.PutUint64(sumMsg[8:], math.Float64bits(weighted))
			binary.LittleEndian.PutUint64(sumMsg[16:], math.Float64bits(sumSq))
			return euOut, nil
		}

		// Resampling sub-steps 1 and 2: fold the exchanged sums into the
		// estimate, then resample locally against the global quota and
		// export the surplus. Every PE sends one (possibly empty) migration
		// to every other PE: a static message *rate* with variable token
		// size — exactly the VTS pattern.
		ks[fmt.Sprintf("rs%d", p)] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			var totalSum, totalWeighted, totalSumSq float64
			for q := range d.pes {
				if b := in[fg.pe[q].sum[p]]; q != p {
					if len(b) != 24 {
						return nil, fmt.Errorf("particle: sum message of %d bytes", len(b))
					}
					pf.sums[q] = math.Float64frombits(binary.LittleEndian.Uint64(b))
					pf.weighted[q] = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
					pf.sumSqs[q] = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
				}
				totalSum += pf.sums[q]
				totalWeighted += pf.weighted[q]
				totalSumSq += pf.sumSqs[q]
			}
			estimate := totalWeighted / totalSum
			if totalSum <= 0 {
				estimate = Estimate(pf.particles, nil, 0) // the unweighted mean
			}
			if p == 0 {
				est(iter, estimate)
			}

			// Adaptive gate: all PEs compute the same global ESS from the
			// exchanged sums; a healthy weight distribution skips local
			// resampling and sends empty migrations.
			pf.resampled = !d.adaptive || totalSumSq <= 0 ||
				totalSum*totalSum/totalSumSq < d.resampleFrac*float64(d.pes*d.perPE)
			if pf.resampled {
				if p == 0 {
					d.resamplings++ // counted once per round, on PE 0
				}
				quotas(pf.quota, pf.fracs, pf.sums, d.pes*d.perPE)
				pf.spare = SystematicResample(pf.spare, pf.particles, pf.weights, pf.sums[p], pf.quota[p], pf.rng)
				migrationRow(pf.plan, pf.quota, d.perPE, p)
				for i := range pf.weights {
					pf.weights[i] = 1
				}
			}
			exportFrom := d.perPE
			for q := range d.pes {
				if q == p {
					continue
				}
				msg := mig[q][:0]
				if k := pf.plan[q]; pf.resampled && k > 0 {
					for _, a := range pf.spare[exportFrom : exportFrom+k] {
						msg = binary.LittleEndian.AppendUint64(msg, math.Float64bits(a))
					}
					exportFrom += k
				}
				mig[q] = msg
				rsOut[e.mig[q]] = msg
			}
			return rsOut, nil
		}

		// Resampling sub-step 3: intra-resampling. The next particles are
		// the kept ones followed by every other PE's imports in PE order
		// (written over the exports, which rs has already sent).
		ks[fmt.Sprintf("xs%d", p)] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			next := pf.particles
			if pf.resampled {
				next = pf.spare[:min(len(pf.spare), d.perPE)]
			}
			for q := range d.pes {
				if b := in[fg.pe[q].mig[p]]; q != p {
					if len(b)%8 != 0 {
						return nil, fmt.Errorf("particle: particle message of %d bytes", len(b))
					}
					for i := 0; i < len(b); i += 8 {
						next = append(next, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
					}
				}
			}
			if len(next) != d.perPE {
				return nil, fmt.Errorf("particle: PE %d ended iteration with %d particles, want %d", p, len(next), d.perPE)
			}
			if pf.resampled {
				pf.spare, pf.particles = pf.particles, next
			}
			return xsOut, nil
		}
	}
	return ks
}

// Step runs one distributed E-U-S iteration against an observation: one
// iteration of the standing deployment. The returned estimate is the
// global weighted mean every PE computes from the exchanged partial sums.
func (d *Distributed) Step(observation float64) (float64, error) {
	d.y = observation
	if err := d.run.Run(d.steps, 1); err != nil {
		return 0, err
	}
	d.steps++
	return d.est, nil
}

// Run tracks a whole observation sequence and returns per-step estimates.
func (d *Distributed) Run(observations []float64) ([]float64, error) {
	out := make([]float64, len(observations))
	for i, y := range observations {
		est, err := d.Step(y)
		if err != nil {
			return nil, fmt.Errorf("particle: step %d: %w", i, err)
		}
		out[i] = est
	}
	return out, nil
}
