package spi

import (
	"fmt"

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
// platform simulator.
type System struct {
	// Graph is the application graph (pre-VTS; dynamic edges allowed).
	Graph *dataflow.Graph
	// Mapping is the multiprocessor schedule.
	Mapping *sched.Mapping
	// Platform configures the target.
	Platform platform.Config
	// PayloadFn optionally supplies per-iteration payload sizes for
	// dynamic edges. Edges without an entry use their static worst case.
	PayloadFn map[dataflow.EdgeID]func(iter int) int
	// ComputeFn optionally supplies per-iteration compute cycles for an
	// actor's whole block; the default is q[a] * ExecCycles.
	ComputeFn map[dataflow.ActorID]func(iter int) int64
	// ForceUBS lists edges forced onto the UBS protocol regardless of the
	// bound analysis (for ablation studies).
	ForceUBS map[dataflow.EdgeID]bool
	// SuppressAcks drops the UBS acknowledgement messages — the
	// configuration after resynchronization has proven them redundant
	// (paper §4.1). Used by the resynchronization ablation.
	SuppressAcks bool
	// ExtraSyncMessages inserts, per iteration, pure synchronization
	// messages (resynchronization edges realized as separate messages):
	// each entry is a (fromPE, toPE) pair carrying SyncMessageBytes.
	ExtraSync []SyncMessage
	// Block is the vectorization blocking factor B: one simulated
	// iteration models B graph iterations fired back to back, with every
	// interprocessor edge moving one packed B-token slab (one header, one
	// credit/ack) per sim iteration. Callers sweep speedup-vs-B by
	// running iters/B sim iterations and dividing the per-iteration time
	// by B. 0 or 1 models scalar execution exactly.
	Block int
}

// SyncMessageBytes is the payload of one pure synchronization message.
const SyncMessageBytes = 2

// SyncMessage is a pure synchronization message between two PEs, sent at a
// fixed point in the iteration (after the source PE's computation).
type SyncMessage struct {
	FromPE, ToPE int
}

// Deployment is the lowered system, ready to run.
type Deployment struct {
	Sim   *platform.Sim
	Plans []EdgePlan
	// SyncChannels are the channels carrying ExtraSync messages.
	SyncChannels []platform.ChannelID
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
//     eq. 2 yields a finite bound, UBS otherwise), UBS when forced.
//  3. Inserts an SPI channel per interprocessor edge: SPI_static header
//     for originally-static edges, SPI_dynamic for VTS and blocked edges.
//  4. Emits per-PE programs in mapping order: receive inputs, compute the
//     actor block, send outputs — the communication actors bracketing the
//     computation, per the SPI actor-pair insertion of paper §2.
func Build(sys *System) (*Deployment, error) {
	g := sys.Graph
	m := sys.Mapping
	// One simulated PE per processor: the identity placement. Like the
	// executors, the simulator holds the schedule to the blocking factor.
	plan, err := placedPlan(g, m, nil, m.NumProcs, sys.Block, true, false)
	if err != nil {
		return nil, err
	}
	blk, q := plan.block, plan.q
	if sys.Platform.NumPEs == 0 {
		sys.Platform = platform.DefaultConfig(m.NumProcs)
	}
	if sys.Platform.NumPEs < m.NumProcs {
		return nil, fmt.Errorf("spi: platform has %d PEs, mapping needs %d", sys.Platform.NumPEs, m.NumProcs)
	}
	sim, err := platform.NewSim(sys.Platform)
	if err != nil {
		return nil, err
	}
	dep := &Deployment{Sim: sim}
	// Channel per interprocessor edge, as planned: one message (a slab when
	// blocked) per sim iteration; capacity and preload count whole messages.
	cfgOf := make(map[dataflow.EdgeID]EdgeConfig)
	chanOf := make(map[dataflow.EdgeID]platform.ChannelID)
	for _, eid := range m.InterprocessorEdges(g) {
		e := g.Edge(eid)
		pe := plan.edge(eid)
		cfg := pe.config()
		if sys.ForceUBS[eid] {
			cfg.Protocol, cfg.Capacity = UBS, 0
		}
		cfgOf[eid] = cfg
		spec := platform.ChannelSpec{
			From:        int(m.Proc[e.Src]),
			To:          int(m.Proc[e.Snk]),
			Name:        e.Name,
			HeaderBytes: HeaderBytes(cfg.Mode),
			Capacity:    cfg.Capacity,
			Preload:     int(pe.Delay / pe.Block),
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

	// Extra sync message channels.
	syncSendOf := make(map[int][]platform.ChannelID) // per source PE
	for i, sm := range sys.ExtraSync {
		ch, err := sim.AddChannel(platform.ChannelSpec{
			From: sm.FromPE, To: sm.ToPE,
			Name:        fmt.Sprintf("sync%d", i),
			HeaderBytes: StaticHeaderBytes,
		})
		if err != nil {
			return nil, err
		}
		dep.SyncChannels = append(dep.SyncChannels, ch)
		syncSendOf[sm.FromPE] = append(syncSendOf[sm.FromPE], ch)
	}

	// Per-PE programs. One sim iteration models blk graph iterations: an
	// actor's blk compute blocks fuse into one Compute op, and every edge
	// moves one message.
	for p := 0; p < m.NumProcs; p++ {
		var prog platform.Program
		for _, a := range m.Order[p] {
			// Receive every interprocessor input.
			for _, eid := range g.In(a) {
				if ch, ok := chanOf[eid]; ok {
					prog = append(prog, platform.Recv(ch))
				}
			}
			// Compute the block (all blk iterations of it).
			if fn, ok := sys.ComputeFn[a]; ok {
				if blk > 1 {
					base := fn
					fn = func(iter int) int64 {
						var total int64
						for j := 0; j < blk; j++ {
							total += base(iter*blk + j)
						}
						return total
					}
				}
				prog = append(prog, platform.ComputeFn(fn))
			} else {
				cost := g.Actor(a).ExecCycles
				if cost <= 0 {
					cost = 1
				}
				prog = append(prog, platform.Compute(int64(blk)*q[a]*cost))
			}
			// Send every interprocessor output.
			for _, eid := range g.Out(a) {
				ch, ok := chanOf[eid]
				if !ok {
					continue
				}
				fn, ok := sys.PayloadFn[eid]
				switch {
				case ok && blk > 1:
					// One slab carries the block's packed payloads plus the
					// per-token size table of the slab layout.
					prog = append(prog, platform.SendFn(ch, func(iter int) int {
						total := slabCountBytes + blk*slabSizeBytes
						for j := 0; j < blk; j++ {
							total += fn(iter*blk + j)
						}
						return total
					}))
				case ok:
					prog = append(prog, platform.SendFn(ch, fn))
				default:
					// Worst case: the packed payload at b_max, or the slab of
					// blk of them plus the size table on dynamic edges.
					cfg := cfgOf[eid]
					prog = append(prog, platform.Send(ch, max(cfg.PayloadBytes, cfg.MaxBytes)))
				}
			}
		}
		// Pure sync messages sent at end of this PE's iteration; matching
		// receives appended to the destination below.
		for _, ch := range syncSendOf[p] {
			prog = append(prog, platform.SendKind(ch, SyncMessageBytes, platform.SyncMsg))
		}
		if err := sim.SetProgram(p, prog); err != nil {
			return nil, err
		}
	}
	// Append sync receives to destination programs.
	for i, sm := range sys.ExtraSync {
		prog := append(platform.Program{}, sim.Program(sm.ToPE)...)
		prog = append(prog, platform.Recv(dep.SyncChannels[i]))
		if err := sim.SetProgram(sm.ToPE, prog); err != nil {
			return nil, err
		}
	}
	return dep, nil
}
