package spi

import (
	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/vts"
)

// Edge planning and the graph lowering of the executor core: VTS
// conversion, buffer bounds, and the per-edge mode/protocol/capacity
// selection — the compile-time half of SPI_init — and lowerGraph, which
// compiles one node's share of a mapped graph into the execEnv every
// execution mode runs (execute.go). BuildPartitions stamps the same edge
// plans into PartitionSpecs, whose lowering is lowerPartition.

type graphPlan struct {
	g      *dataflow.Graph
	conv   *vts.Result
	bounds []vts.Bounds
	q      dataflow.Repetitions
	// block is the vectorization blocking factor B (1 = scalar). Edges
	// whose delay is a whole multiple of B iterations carry B-token slabs;
	// the rest stay token-granular (edgeBlock).
	block int
}

func newGraphPlan(g *dataflow.Graph, block int) (*graphPlan, error) {
	conv, err := vts.Convert(g)
	if err != nil {
		return nil, err
	}
	bounds, err := vts.ComputeBounds(conv)
	if err != nil {
		return nil, err
	}
	q, err := g.RepetitionsVector()
	if err != nil {
		return nil, err
	}
	if block < 1 {
		block = 1
	}
	return &graphPlan{g: g, conv: conv, bounds: bounds, q: q, block: block}, nil
}

// delayIters converts an edge's initial-token delay into whole graph
// iterations of preloaded (empty) block messages.
func (p *graphPlan) delayIters(eid dataflow.EdgeID) int {
	e := p.g.Edge(eid)
	if t := int(p.g.IterationTokens(p.q, eid)); t > 0 {
		return e.Delay / t
	}
	return 0
}

// edgeBlock is the number of iterations packed per message on this edge: the
// plan's blocking factor when the edge's delay aligns with it (a whole
// multiple of B iterations, including zero), else 1. A misaligned delay
// makes the consumer's block straddle two producer blocks, so such edges
// stay token-granular.
func (p *graphPlan) edgeBlock(eid dataflow.EdgeID) int {
	if p.block <= 1 || p.delayIters(eid)%p.block != 0 {
		return 1
	}
	return p.block
}

// edgeConfig selects the SPI component (static/dynamic framing) and the
// buffer protocol (BBS when the VTS analysis proves a bound, else UBS) for
// one interprocessor edge — identical for in-process and networked edges,
// so a distributed run and its single-process reference use the same
// protocols on the same edges. A blocked edge (edgeBlock > 1) carries
// B-token slabs in SPI_dynamic framing — the final block of a run may be
// partial — with capacity, preload, and the BBS credit pool accounted in
// slabs, scaling the eq. 2 memory bound by B.
func (p *graphPlan) edgeConfig(eid dataflow.EdgeID) EdgeConfig {
	info := p.conv.Info(eid)
	cfg := EdgeConfig{ID: EdgeID(eid), Name: p.g.Edge(eid).Name, Mode: Static, PayloadBytes: int(info.BMax)}
	if info.Dynamic {
		cfg.Mode = Dynamic
		cfg.MaxBytes = int(info.BMax)
	}
	bf := p.edgeBlock(eid)
	if bf > 1 {
		cfg.Mode = Dynamic
		cfg.MaxBytes = SlabBound(int(info.BMax), info.Dynamic, bf)
	}
	b := p.bounds[eid]
	if b.Bounded {
		cfg.Protocol = BBS
		capMsgs := int(b.IPC/b.BMax) / bf
		if capMsgs < 1 {
			capMsgs = 1
		}
		if d := p.delayIters(eid) / bf; capMsgs < d+1 {
			capMsgs = d + 1
		}
		cfg.Capacity = capMsgs
	} else {
		cfg.Protocol = UBS
	}
	return cfg
}

// preload builds an edge's initial-delay messages (empty blocks), which
// open sends through the edge's sender so iteration 0 finds its tokens,
// mirroring the channel preloading of the platform lowering. On a blocked
// edge the delay goes out as delay/B full slabs of B empty tokens — the
// slab-level image of the scalar preload. Send copies, so all the
// messages share one buffer.
func (p *graphPlan) preload(eid dataflow.EdgeID, cfg EdgeConfig) ([][]byte, error) {
	bf := p.edgeBlock(eid)
	n := p.delayIters(eid) / bf
	if n == 0 {
		return nil, nil
	}
	var msg []byte
	if bf > 1 {
		info := p.conv.Info(eid)
		var err error
		if msg, err = PackSlab(nil, make([][]byte, bf), int(info.BMax), info.Dynamic); err != nil {
			return nil, err
		}
	} else if cfg.Mode == Static {
		msg = make([]byte, cfg.PayloadBytes)
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = msg
	}
	return payloads, nil
}

// lowerGraph compiles node me's share of a mapped graph — the processors
// nodeOf places there, every edge touching them — into an execEnv. Actors
// without an entry in kernels/vkernels get none (PeerDecls lowers for the
// edge plan alone); checkKernels reports them.
func lowerGraph(g *dataflow.Graph, m *sched.Mapping, nodeOf []int, me, block int,
	kernels map[dataflow.ActorID]Kernel, vkernels map[dataflow.ActorID]VectorKernel) (*execEnv, error) {
	plan, err := newGraphPlan(g, block)
	if err != nil {
		return nil, err
	}
	if err := g.CheckBlockSchedule(plan.block, m.Order); err != nil {
		return nil, err
	}
	env := &execEnv{node: me, block: plan.block, rt: NewRuntime(),
		edges: make([]edgeSlot, 0, g.NumEdges()), procs: make([]procPlan, 0, m.NumProcs)}
	slots := make([]*edgeSlot, g.NumEdges())
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		srcProc, snkProc := m.Proc[e.Src], m.Proc[e.Snk]
		srcNode, snkNode := nodeOf[srcProc], nodeOf[snkProc]
		if srcNode != me && snkNode != me {
			continue
		}
		info := plan.conv.Info(eid)
		env.edges = append(env.edges, edgeSlot{id: eid, name: e.Name,
			bmax: int(info.BMax), dynamic: info.Dynamic, block: 1, peer: -1})
		s := &env.edges[len(env.edges)-1]
		slots[eid] = s
		if srcProc == snkProc {
			// The local queue starts with the delay tokens (empty blocks).
			s.queue = make([][]byte, plan.delayIters(eid))
			continue
		}
		s.block = plan.edgeBlock(eid)
		s.cfg = plan.edgeConfig(eid)
		s.out, s.in = srcNode == me, snkNode == me
		switch {
		case !s.out:
			s.peer = srcNode
		case !s.in:
			s.peer = snkNode
		}
		if s.out {
			// Sender-side only, so the delay tokens cross a wire once.
			if s.preload, err = plan.preload(eid, s.cfg); err != nil {
				return nil, err
			}
		}
	}
	pick := func(ids []dataflow.EdgeID) []*edgeSlot {
		out := make([]*edgeSlot, len(ids))
		for i, eid := range ids {
			out[i] = slots[eid]
		}
		return out
	}
	for p := 0; p < m.NumProcs; p++ {
		if nodeOf[p] != me {
			continue
		}
		pp := procPlan{proc: p, actors: make([]actorSlot, len(m.Order[p])),
			in: map[dataflow.EdgeID][]byte{}}
		if plan.block > 1 {
			pp.vecIn = map[dataflow.EdgeID][][]byte{}
		}
		for i, a := range m.Order[p] {
			as := &pp.actors[i]
			as.name, as.kernel = g.Actor(a).Name, kernels[a]
			if plan.block > 1 {
				as.vkernel = vkernels[a]
			}
			as.in, as.out = pick(g.In(a)), pick(g.Out(a))
		}
		env.procs = append(env.procs, pp)
	}
	return env, nil
}
