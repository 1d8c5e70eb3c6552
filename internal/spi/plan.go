package spi

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/vts"
)

// The planner: the compile-time half of SPI_init. A graphPlan holds the VTS
// conversion, the buffer bounds and the blocking factor, and decides per
// edge the component (static/dynamic), the protocol (BBS/UBS), the capacity
// and the block factor (edge). Placed on a mapping and a processor→node
// assignment (place) it builds the one compiled form, a PartitionSpec per
// node (spec): a static run — Execute, ExecuteBlocked, ExecuteDistributed,
// PeerDecls, a session server — compiles its own node's (BuildPartition), a
// coordinator every worker's (BuildPartitions), and whoever runs one hands
// it to lowerPartition (partition.go), the only code that builds an execEnv. The simulator lowering (build.go) reads the same edge plans.

type graphPlan struct {
	g      *dataflow.Graph
	conv   *vts.Result
	bounds []vts.Bounds
	q      dataflow.Repetitions
	// block is the vectorization blocking factor B (1 = scalar).
	block int

	// Set by place: the mapping, the node hosting each processor, the node
	// count, and the edges whose acks the §4 verdict suppresses (nil unless
	// the run asked for resynchronization).
	m          *sched.Mapping
	nodeOf     []int
	nodes      int
	suppressed map[dataflow.EdgeID]string
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
	return &graphPlan{g: g, conv: conv, bounds: bounds, q: q, block: max(block, 1)}, nil
}

// edge plans one interprocessor edge, locality aside: the SPI component
// (static/dynamic framing) and the bound of one token, the buffer protocol
// (BBS when the VTS analysis proves a bound, else UBS), the delay in whole
// graph iterations, and the block factor — identical for in-process and
// networked edges, so a distributed run and its single-process reference
// use the same protocols on the same edges. An edge carries B-token slabs
// when its delay is a whole multiple of B iterations (including zero);
// a misaligned delay makes the consumer's block straddle two producer
// blocks, so such an edge stays token-granular. Capacity and the BBS credit
// pool are accounted in messages — slabs on a blocked edge, scaling the
// eq. 2 memory bound by B — and leave room for one message beyond the
// preloaded delay.
func (p *graphPlan) edge(eid dataflow.EdgeID) PartEdge {
	e, info := p.g.Edge(eid), p.conv.Info(eid)
	delay, bf := 0, 1
	if t := int(p.g.IterationTokens(p.q, eid)); t > 0 {
		delay = e.Delay / t
	}
	if delay%p.block == 0 {
		bf = p.block
	}
	pe := PartEdge{ID: uint16(eid), Name: e.Name, Mode: uint8(Static), Bytes: uint32(info.BMax),
		Protocol: uint8(UBS), Delay: uint32(delay), Block: uint32(bf), Peer: -1}
	if info.Dynamic {
		pe.Mode = uint8(Dynamic)
	}
	if b := p.bounds[eid]; b.Bounded {
		pe.Protocol = uint8(BBS)
		pe.Capacity = uint32(max(int(b.IPC/b.BMax)/bf, delay/bf+1))
	}
	return pe
}

// place binds the plan to a mapping and a processor→node assignment over
// the given number of nodes, and is the one validation of both: the mapping
// against the graph, one node in range per processor, and the schedule
// against the blocking factor. The assignment is a static run's NodeOf, whose
// nil is the identity (processor p on node p), or else a coordinator's
// placement, spelled out. With resync it also computes the §4 verdict, which
// spec stamps as SuppressAck.
func (p *graphPlan) place(m *sched.Mapping, nodeOf []int, nodes int, static, resync bool) error {
	if err := m.Validate(p.g); err != nil {
		return err
	}
	what := "placement"
	if static {
		what = "NodeOf"
	}
	if static && nodeOf == nil {
		if m.NumProcs > nodes {
			return fmt.Errorf("spi: %d processors but only %d node addresses (set NodeOf)", m.NumProcs, nodes)
		}
		nodeOf = make([]int, m.NumProcs)
		for proc := range nodeOf {
			nodeOf[proc] = proc
		}
	}
	if len(nodeOf) != m.NumProcs {
		return fmt.Errorf("spi: %s has %d entries, mapping has %d processors", what, len(nodeOf), m.NumProcs)
	}
	for proc, n := range nodeOf {
		if n < 0 || n >= nodes {
			return fmt.Errorf("spi: %s[%d] = %d out of range [0,%d)", what, proc, n, nodes)
		}
	}
	if err := p.g.CheckBlockSchedule(p.block, m.Order); err != nil {
		return err
	}
	p.m, p.nodeOf, p.nodes = m, nodeOf, nodes
	if resync {
		// The suppression set is a pure function of graph and mapping, so
		// every node computes the same one; each link declares its own part
		// of it in the handshake, which refuses a peer that disagrees.
		rp, err := p.resyncSuppression(m)
		if err != nil {
			return err
		}
		p.suppressed = rp.Suppressed
	}
	return nil
}

// spec extracts node me's share of the placed plan: the processors placed
// there with their schedules, every edge touching them, and, as Preload,
// the delay tokens of a fresh run on the delayed edges produced there. The
// caller fills in what a deployment adds (Addrs, an iteration range, a
// checkpoint's Preload and State). A node hosting nothing gets a spec
// without processors, which lowerPartition refuses.
func (p *graphPlan) spec(me int) *PartitionSpec {
	g, m := p.g, p.m
	// A static run compiles a spec per run and per session, so its slices are
	// cut from a few arrays sized by the whole graph, not grown by append.
	spec := &PartitionSpec{Graph: g.Name(), Node: me, Workers: p.nodes, Block: p.block,
		Procs: make([]PartProc, 0, m.NumProcs), Edges: make([]PartEdge, 0, g.NumEdges()),
		Preload: map[uint16][][]byte{}}
	actors, ids := make([]PartActor, 0, g.NumActors()), make([]uint16, 0, 2*g.NumEdges())
	list := func(eids []dataflow.EdgeID) []uint16 {
		if len(eids) == 0 {
			return nil
		}
		at := len(ids)
		for _, eid := range eids {
			ids = append(ids, uint16(eid))
		}
		return ids[at:len(ids):len(ids)]
	}
	for proc, order := range m.Order {
		if p.nodeOf[proc] != me {
			continue
		}
		at := len(actors)
		for _, a := range order {
			actors = append(actors, PartActor{Name: g.Actor(a).Name, In: list(g.In(a)), Out: list(g.Out(a))})
		}
		spec.Procs = append(spec.Procs, PartProc{Proc: proc, Actors: actors[at:len(actors):len(actors)]})
	}
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		srcProc, snkProc := m.Proc[e.Src], m.Proc[e.Snk]
		srcNode, snkNode := p.nodeOf[srcProc], p.nodeOf[snkProc]
		if srcNode != me && snkNode != me {
			continue
		}
		pe := p.edge(eid)
		_, pe.SuppressAck = p.suppressed[eid]
		switch {
		case srcProc == snkProc:
			// A local queue: never on the wire, so never blocked.
			pe.SameProc, pe.Block = true, 1
		case srcNode == snkNode:
			pe.Out, pe.In = true, true
		case srcNode == me:
			pe.Out, pe.Peer = true, snkNode
		default:
			pe.In, pe.Peer = true, srcNode
		}
		if (pe.Out || pe.SameProc) && pe.Delay > 0 {
			spec.Preload[pe.ID] = pe.delayTokens()
		}
		spec.Edges = append(spec.Edges, pe)
	}
	return spec
}
