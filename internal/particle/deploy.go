package particle

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/hdl"
	"repro/internal/sched"
	"repro/internal/spi"
)

// Deployment model of the n-PE particle filter for the figure-7 timing
// sweep and the table-2 area report.

// DeployParams configures a particle-filter deployment.
type DeployParams struct {
	// Particles is the total particle count N (figure 7's x axis; the
	// paper sweeps 50–300).
	Particles int
	// PEs is the processing element count (1 or 2 in the paper; the
	// computational requirement was high enough that only 2 PEs fit the
	// device).
	PEs int
	// EUCyclesPerParticle is the estimate+update datapath cost per
	// particle (state propagation, likelihood with exponential).
	EUCyclesPerParticle int64
	// ResampleCyclesPerParticle is the local-resampling cost per particle.
	ResampleCyclesPerParticle int64
	// ExchangeCyclesPerParticle is the intra-resampling repacking cost.
	ExchangeCyclesPerParticle int64
	// ParticleBytes is the wire size of one particle value.
	ParticleBytes int
}

// DefaultDeploy returns the evaluation defaults for N particles on n PEs.
func DefaultDeploy(particles, pes int) DeployParams {
	return DeployParams{
		Particles:                 particles,
		PEs:                       pes,
		EUCyclesPerParticle:       60,
		ResampleCyclesPerParticle: 12,
		ExchangeCyclesPerParticle: 4,
		ParticleBytes:             8,
	}
}

// Validate checks the parameters.
func (p DeployParams) Validate() error {
	if p.Particles <= 0 || p.PEs <= 0 || p.Particles%p.PEs != 0 {
		return fmt.Errorf("particle: %d particles on %d PEs", p.Particles, p.PEs)
	}
	if p.EUCyclesPerParticle <= 0 || p.ResampleCyclesPerParticle <= 0 ||
		p.ExchangeCyclesPerParticle <= 0 || p.ParticleBytes <= 0 {
		return fmt.Errorf("particle: bad cost params %+v", p)
	}
	return nil
}

// FilterSystem builds the SPI system of the n-PE filter — the graph
// Distributed runs. Each PE carries three tasks matching the paper's split
// of the resampling step (figure 5): estimate+update (which also produces
// the partial sums), local resampling, and intra-resampling, and a loopback
// edge with one iteration of delay from the last back to the first.
// Cross-PE edges: partial-sum exchange (SPI_static, 24 bytes: Σw, Σw·a and
// Σw², the last for the adaptive gate) from EU to every other PE's
// local-resampling task, and particle migration (SPI_dynamic, bounded by
// all N particles) from local to every other PE's intra-resampling task.
// The loopback closes a delayed cycle through every cross-PE edge, so
// eq. 2 bounds them all and every one is BBS.
//
// Migration sizes vary at run time; the deterministic sizeFn drives the
// simulated payloads (pass nil for a representative synthetic pattern).
func FilterSystem(p DeployParams, sizeFn func(iter int) int) (*spi.System, error) {
	sys, _, err := filterSystem(p, sizeFn)
	return sys, err
}

// peEdges are one PE's edges in FilterSystem's graph: its intra-PE ones,
// and its sum and migration edges to each other PE q at index q.
type peEdges struct {
	eurs, rsxs, loop dataflow.EdgeID
	sum, mig         []dataflow.EdgeID
}

// filterSystem is FilterSystem, with every PE's edges.
func filterSystem(p DeployParams, sizeFn func(iter int) int) (*spi.System, []peEdges, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	perPE := p.Particles / p.PEs
	if sizeFn == nil {
		// Representative migration volume: varies between 0 and a quarter
		// of a PE's particles, deterministic in the iteration.
		sizeFn = func(iter int) int {
			span := perPE/4 + 1
			return ((iter*31 + 7) % span) * p.ParticleBytes
		}
	}
	g := dataflow.New(fmt.Sprintf("pf-n%d-N%d", p.PEs, p.Particles))
	eu := make([]dataflow.ActorID, p.PEs)
	rs := make([]dataflow.ActorID, p.PEs)
	xs := make([]dataflow.ActorID, p.PEs)
	for i := 0; i < p.PEs; i++ {
		eu[i] = g.AddActor(fmt.Sprintf("eu%d", i), int64(perPE)*p.EUCyclesPerParticle)
		rs[i] = g.AddActor(fmt.Sprintf("rs%d", i), int64(perPE)*p.ResampleCyclesPerParticle)
		xs[i] = g.AddActor(fmt.Sprintf("xs%d", i), int64(perPE)*p.ExchangeCyclesPerParticle)
	}
	payload := map[dataflow.EdgeID]func(int) int{}
	edges := make([]peEdges, p.PEs)
	for i := 0; i < p.PEs; i++ {
		e := &edges[i]
		e.sum, e.mig = make([]dataflow.EdgeID, p.PEs), make([]dataflow.EdgeID, p.PEs)
		// Intra-PE pipeline: eu -> rs -> xs (same processor), and back.
		e.eurs = g.AddEdge(fmt.Sprintf("eurs%d", i), eu[i], rs[i], 1, 1, dataflow.EdgeSpec{TokenBytes: 4})
		e.rsxs = g.AddEdge(fmt.Sprintf("rsxs%d", i), rs[i], xs[i], 1, 1, dataflow.EdgeSpec{TokenBytes: 4})
		e.loop = g.AddEdge(fmt.Sprintf("loop%d", i), xs[i], eu[i], 1, 1, dataflow.EdgeSpec{Delay: 1, TokenBytes: 4})
		for j := 0; j < p.PEs; j++ {
			if i == j {
				continue
			}
			// Partial sums: fixed-length message (SPI_static).
			e.sum[j] = g.AddEdge(fmt.Sprintf("sum%d_%d", i, j), eu[i], rs[j], 24, 24,
				dataflow.EdgeSpec{TokenBytes: 1})
			// Particle migration: variable length (SPI_dynamic).
			bound := p.Particles * p.ParticleBytes
			e.mig[j] = g.AddEdge(fmt.Sprintf("mig%d_%d", i, j), rs[i], xs[j], bound, bound,
				dataflow.EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 1})
			payload[e.mig[j]] = sizeFn
		}
	}
	m := &sched.Mapping{
		NumProcs: p.PEs,
		Proc:     make([]sched.Processor, g.NumActors()),
		Order:    make([][]dataflow.ActorID, p.PEs),
	}
	for i := 0; i < p.PEs; i++ {
		m.Proc[eu[i]] = sched.Processor(i)
		m.Proc[rs[i]] = sched.Processor(i)
		m.Proc[xs[i]] = sched.Processor(i)
		m.Order[i] = []dataflow.ActorID{eu[i], rs[i], xs[i]}
	}
	return &spi.System{Graph: g, Mapping: m, PayloadFn: payload}, edges, nil
}

// HardwareModel builds the HDL module tree of the n-PE particle filter for
// the table-2 style area report. The filter datapath dominates: per PE a
// state-propagation unit (square root and power-law evaluation), a
// likelihood unit (exponential via table + multipliers), the resampling
// comparator tree, a hardware RNG, and the particle/weight memories.
// The SPI library its edges in FilterSystem call for (a static sum edge
// and a dynamic migration edge to and from every other PE) is a tiny
// fraction — the paper's headline table-2 result.
func HardwareModel(p DeployParams) (*hdl.Module, error) {
	sys, err := FilterSystem(p, nil)
	if err != nil {
		return nil, err
	}
	perPE := p.Particles / p.PEs
	top := hdl.NewModule(fmt.Sprintf("pf_%dpe", p.PEs))

	io := hdl.NewModule("io_interface")
	io.Add(hdl.RAM("io.obsbuf", 4096))
	io.Add(hdl.FSM("io.ctl", 8))
	top.Add(io)

	// PE i runs on processor i.
	datapaths := make([]*hdl.Module, p.PEs)
	for i := 0; i < p.PEs; i++ {
		name := fmt.Sprintf("pe%d", i)
		pe := hdl.NewModule(name)
		// State propagation: sqrt (CORDIC), power-law, process noise.
		prop := hdl.NewModule(name + ".propagate")
		prop.Add(hdl.LUTLogic(name+".sqrt_cordic", 1500))
		prop.Add(hdl.LUTLogic(name+".powlaw", 2400))
		prop.Add(hdl.Multiplier(name+".growth_mul", 32, 32))
		prop.Add(hdl.Register(name+".prop_pipe", 256))
		pe.Add(prop)
		// Likelihood: exponential via BRAM table + interpolation.
		lik := hdl.NewModule(name + ".likelihood")
		lik.Add(hdl.RAM(name+".exp_table", 4*hdl.BlockRAMBytes))
		lik.Add(hdl.Multiplier(name+".lik_mul0", 32, 32))
		lik.Add(hdl.Multiplier(name+".lik_mul1", 32, 32))
		lik.Add(hdl.LUTLogic(name+".interp", 1700))
		lik.Add(hdl.Register(name+".lik_pipe", 256))
		pe.Add(lik)
		// Hardware RNG: parallel LFSRs + Gaussian shaping.
		rng := hdl.NewModule(name + ".rng")
		rng.Add(hdl.Register(name+".lfsr", 128))
		rng.Add(hdl.LUTLogic(name+".gauss", 1100))
		pe.Add(rng)
		// Resampling: cumulative-sum walker and comparator tree.
		res := hdl.NewModule(name + ".resample")
		res.Add(hdl.Adder(name+".cumsum", 48))
		res.Add(hdl.Comparator(name+".cmp", 48))
		res.Add(hdl.LUTLogic(name+".walker", 1300))
		res.Add(hdl.Counter(name+".ridx", 12))
		pe.Add(res)
		// Memories: double-buffered particles + weights.
		mem := hdl.NewModule(name + ".memories")
		mem.Add(hdl.RAM(name+".particles_a", perPE*p.ParticleBytes+4*hdl.BlockRAMBytes))
		mem.Add(hdl.RAM(name+".particles_b", perPE*p.ParticleBytes+4*hdl.BlockRAMBytes))
		mem.Add(hdl.RAM(name+".weights", perPE*8+2*hdl.BlockRAMBytes))
		pe.Add(mem)
		pe.Add(hdl.FSM(name+".ctl", 24))
		pe.Add(hdl.LUTLogic(name+".glue", 1900))
		pe.Add(hdl.Register(name+".stage", 512))
		datapaths[i] = pe
	}
	if err := hdl.AddSPILibraries(top, sys, datapaths); err != nil {
		return nil, err
	}
	return top, nil
}
