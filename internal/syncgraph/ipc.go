package syncgraph

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/sched"
)

// BuildIPCGraph derives the IPC graph G_ipc of a mapped dataflow graph,
// following §4.1 of the paper:
//
//   - a vertex is instantiated for each task (actor block),
//   - an edge connects each task to the task that succeeds it on the same
//     processor,
//   - a unit-delay edge connects the last task on each processor to the
//     first task on the same processor, and
//   - for each dataflow edge x->y whose endpoints execute on different
//     processors, an IPC edge is instantiated from x to y; its delay is the
//     iteration slack bought by the dataflow edge's initial tokens.
//
// Vertex IDs equal the dataflow actor IDs.
func BuildIPCGraph(g *dataflow.Graph, m *sched.Mapping) (*Graph, error) {
	if err := m.Validate(g); err != nil {
		return nil, err
	}
	q, err := g.RepetitionsVector()
	if err != nil {
		return nil, err
	}
	sg := NewGraph()
	for _, a := range g.Actors() {
		act := g.Actor(a)
		cost := act.ExecCycles
		if cost <= 0 {
			cost = 1
		}
		sg.AddVertex(act.Name, int(m.Proc[a]), q[a]*cost)
	}
	// Intra-processor sequencing and loopback.
	for p, order := range m.Order {
		for i := 1; i < len(order); i++ {
			sg.AddEdge(VertexID(order[i-1]), VertexID(order[i]), 0, IntraprocEdge,
				fmt.Sprintf("p%d-seq", p))
		}
		if len(order) > 0 {
			sg.AddEdge(VertexID(order[len(order)-1]), VertexID(order[0]), 1, LoopbackEdge,
				fmt.Sprintf("p%d-loop", p))
		}
	}
	// IPC edges for interprocessor dataflow edges.
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		if m.Proc[e.Src] == m.Proc[e.Snk] {
			continue
		}
		T := g.IterationTokens(q, eid)
		slack := int64(e.Delay) / T
		sg.AddEdge(VertexID(e.Src), VertexID(e.Snk), slack, IPCEdge, e.Name)
	}
	return sg, nil
}

// AddAllFeedback inserts, for every live IPC edge, the protocol feedback
// edge implied by the SPI buffer protocols and returns how many it added:
//
//   - For a BBS (bounded buffer) IPC edge, the sender may run at most
//     `slots` iterations ahead of the receiver before blocking, which is a
//     reverse synchronization edge snk->src with delay = slots.
//   - For a UBS (unbounded buffer) IPC edge, the receiver acknowledges each
//     message for data-consistency bookkeeping: a reverse sync edge
//     snk->src with the given ack delay (how many outstanding
//     unacknowledged messages the sender tolerates).
//
// These are the edges resynchronization later prunes. Each edge's label
// gets an "ack:" prefix so reports can attribute savings. Slots below 1
// count as 1.
func AddAllFeedback(g *Graph, slots int64) int {
	slots = max(slots, 1)
	n := 0
	for _, e := range g.EdgesOfKind(IPCEdge) {
		g.AddEdge(e.Snk, e.Src, slots, SyncEdge, "ack:"+e.Label)
		n++
	}
	return n
}
