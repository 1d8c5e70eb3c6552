package spi

import (
	"repro/internal/dataflow"
	"repro/internal/platform"
	"repro/internal/sched"
)

// EdgePlan records how one interprocessor dataflow edge is realized by SPI.
type EdgePlan struct {
	Edge     dataflow.EdgeID
	Channel  platform.ChannelID
	Mode     Mode
	Protocol Protocol
	Capacity int
}

// System describes an SPI deployment of a mapped dataflow graph onto the
// platform simulator's default configuration, one PE per processor.
type System struct {
	// Graph is the application graph (pre-VTS; dynamic edges allowed).
	Graph *dataflow.Graph
	// Mapping is the multiprocessor schedule.
	Mapping *sched.Mapping
	// PayloadFn optionally supplies per-iteration payload sizes for
	// dynamic edges. Edges without an entry use their static worst case.
	PayloadFn map[dataflow.EdgeID]func(iter int) int
	// SuppressAcks drops the UBS acknowledgement messages — the
	// configuration after resynchronization has proven them redundant
	// (paper §4.1). Used by the resynchronization ablation.
	SuppressAcks bool
}

// Deployment is the lowered system, ready to run.
type Deployment struct {
	Sim   *platform.Sim
	Plans []EdgePlan
}

// Build lowers the system onto a platform.Sim. It reads the edge plans of
// the planner the executors compile their specs from (graphPlan, plan.go),
// so the simulated channels and the runtime's edges cannot drift apart. The
// lowering:
//
//  1. Plans the graph: VTS conversion so every edge has a static packed
//     rate, and the buffer bounds (eq. 1, eq. 2).
//  2. Takes each interprocessor edge's component, protocol and capacity
//     from its plan (graphPlan.edge: BBS with the bounded capacity when
//     eq. 2 yields a finite bound, UBS otherwise).
//  3. Inserts an SPI channel per interprocessor edge: SPI_static header
//     for originally-static edges, SPI_dynamic for VTS edges.
//  4. Emits per-PE programs in mapping order: receive inputs, compute the
//     actor's firings, send outputs — the communication actors bracketing
//     the computation, per the SPI actor-pair insertion of paper §2.
func Build(sys *System) (*Deployment, error) {
	g := sys.Graph
	m := sys.Mapping
	// One simulated PE per processor: the identity placement.
	plan, err := placedPlan(g, m, nil, m.NumProcs, 1, true, false)
	if err != nil {
		return nil, err
	}
	sim, err := platform.NewSim(platform.DefaultConfig(m.NumProcs))
	if err != nil {
		return nil, err
	}
	dep := &Deployment{Sim: sim}
	// Channel per interprocessor edge, as planned: one message per sim
	// iteration; capacity and preload count whole messages.
	cfgOf := make(map[dataflow.EdgeID]EdgeConfig)
	chanOf := make(map[dataflow.EdgeID]platform.ChannelID)
	for _, eid := range m.InterprocessorEdges(g) {
		e := g.Edge(eid)
		pe := plan.edge(eid)
		cfg := pe.config()
		cfgOf[eid] = cfg
		spec := platform.ChannelSpec{
			From:        int(m.Proc[e.Src]),
			To:          int(m.Proc[e.Snk]),
			Name:        e.Name,
			HeaderBytes: HeaderBytes(cfg.Mode),
			Capacity:    cfg.Capacity,
			Preload:     int(pe.Delay),
		}
		if cfg.Protocol == UBS && !sys.SuppressAcks {
			spec.AckBytes = AckMessageBytes
		}
		ch, err := sim.AddChannel(spec)
		if err != nil {
			return nil, err
		}
		chanOf[eid] = ch
		dep.Plans = append(dep.Plans, EdgePlan{
			Edge: eid, Channel: ch, Mode: cfg.Mode, Protocol: cfg.Protocol, Capacity: cfg.Capacity,
		})
	}

	// Per-PE programs: one sim iteration is one graph iteration.
	for p := 0; p < m.NumProcs; p++ {
		var prog platform.Program
		for _, a := range m.Order[p] {
			// Receive every interprocessor input.
			for _, eid := range g.In(a) {
				if ch, ok := chanOf[eid]; ok {
					prog = append(prog, platform.Recv(ch))
				}
			}
			// Compute the actor's q[a] firings of the iteration.
			cost := g.Actor(a).ExecCycles
			if cost <= 0 {
				cost = 1
			}
			prog = append(prog, platform.Compute(plan.q[a]*cost))
			// Send every interprocessor output.
			for _, eid := range g.Out(a) {
				ch, ok := chanOf[eid]
				if !ok {
					continue
				}
				if fn, ok := sys.PayloadFn[eid]; ok {
					prog = append(prog, platform.SendFn(ch, fn))
				} else {
					// Worst case: the packed payload at b_max.
					cfg := cfgOf[eid]
					prog = append(prog, platform.Send(ch, max(cfg.PayloadBytes, cfg.MaxBytes)))
				}
			}
		}
		if err := sim.SetProgram(p, prog); err != nil {
			return nil, err
		}
	}
	return dep, nil
}
