package experiments

import (
	"fmt"

	"repro/internal/syncgraph"
)

// Fig3Graph builds the synchronization graph of the paper's figure 3: the
// n-PE implementation of actor D, before resynchronization. Each PE pairs
// with an I/O-interface processor carrying three tasks in order — send
// input frame, send predictor coefficients, receive error values — with a
// data message per task and UBS acknowledgements on the dynamic sends.
func Fig3Graph(nPE int) *syncgraph.Graph {
	g := syncgraph.NewGraph()
	for i := 0; i < nPE; i++ {
		ioProc := 2 * i
		peProc := 2*i + 1
		sf := g.AddVertex(fmt.Sprintf("sendFrame%d", i), ioProc, 5)
		sc := g.AddVertex(fmt.Sprintf("sendCoeffs%d", i), ioProc, 5)
		re := g.AddVertex(fmt.Sprintf("recvErr%d", i), ioProc, 5)
		pe := g.AddVertex(fmt.Sprintf("PE%d", i), peProc, 100)
		g.AddEdge(sf, sc, 0, syncgraph.IntraprocEdge, "io-seq1")
		g.AddEdge(sc, re, 0, syncgraph.IntraprocEdge, "io-seq2")
		g.AddEdge(re, sf, 1, syncgraph.LoopbackEdge, "io-loop")
		g.AddEdge(pe, pe, 1, syncgraph.LoopbackEdge, "pe-loop")
		g.AddEdge(sf, pe, 0, syncgraph.IPCEdge, "frame")
		g.AddEdge(sc, pe, 0, syncgraph.IPCEdge, "coeffs")
		g.AddEdge(pe, re, 0, syncgraph.IPCEdge, "errors")
		// UBS acknowledgements for the dynamic transfers: separate
		// messages before optimization.
		g.AddEdge(pe, sf, 1, syncgraph.SyncEdge, "ack:frame")
		g.AddEdge(pe, sc, 1, syncgraph.SyncEdge, "ack:coeffs")
		g.AddEdge(re, pe, 1, syncgraph.SyncEdge, "ack:errors")
	}
	return g
}

// Fig5Graph builds the synchronization graph of the paper's figure 5: the
// 2-PE particle filter before resynchronization. Each processor carries the
// three resampling sub-steps in order — partial-sum computation, local
// resampling, intra-resampling — with the partial-sum exchange (static) and
// the particle exchange (dynamic, with UBS acknowledgements) crossing
// processors.
func Fig5Graph() *syncgraph.Graph {
	g := syncgraph.NewGraph()
	var ps, lr, ir [2]syncgraph.VertexID
	for p := 0; p < 2; p++ {
		ps[p] = g.AddVertex(fmt.Sprintf("partialSum%d", p), p, 40)
		lr[p] = g.AddVertex(fmt.Sprintf("localResample%d", p), p, 20)
		ir[p] = g.AddVertex(fmt.Sprintf("intraResample%d", p), p, 10)
		g.AddEdge(ps[p], lr[p], 0, syncgraph.IntraprocEdge, "seq1")
		g.AddEdge(lr[p], ir[p], 0, syncgraph.IntraprocEdge, "seq2")
		g.AddEdge(ir[p], ps[p], 1, syncgraph.LoopbackEdge, "loop")
	}
	for p := 0; p < 2; p++ {
		q := 1 - p
		g.AddEdge(ps[p], lr[q], 0, syncgraph.IPCEdge, fmt.Sprintf("sums%d%d", p, q))
		g.AddEdge(lr[p], ir[q], 0, syncgraph.IPCEdge, fmt.Sprintf("particles%d%d", p, q))
		// Acks: the static sum exchange needs none under BBS; the dynamic
		// particle exchange runs UBS with an acknowledgement message.
		g.AddEdge(ir[q], lr[p], 1, syncgraph.SyncEdge, fmt.Sprintf("ack:particles%d%d", p, q))
	}
	return g
}

// resyncTable runs Resynchronize on a graph and reports the before/after
// synchronization structure.
func resyncTable(title string, g *syncgraph.Graph, paperNote string) *Table {
	protocols := map[string]syncgraph.Protocol{}
	for _, e := range g.EdgesOfKind(syncgraph.IPCEdge) {
		// Dynamic transfers (frame/coeffs/particles) ride UBS.
		switch e.Label[0] {
		case 'f', 'c', 'p', 'e':
			protocols[e.Label] = syncgraph.UBS
		}
	}
	before := syncgraph.Cost(g, protocols)
	rep := syncgraph.Resynchronize(g)
	after := syncgraph.Cost(g, protocols)

	t := &Table{
		Title:  title,
		Header: []string{"metric", "before", "after"},
		Notes:  []string{paperNote, rep.String()},
	}
	t.AddRow("sync_edges", fmt.Sprintf("%d", rep.SyncBefore), fmt.Sprintf("%d", rep.SyncAfter))
	t.AddRow("pure_sync_messages", fmt.Sprintf("%d", before.SyncEdges), fmt.Sprintf("%d", after.SyncEdges))
	t.AddRow("messages_per_iter", fmt.Sprintf("%d", before.Messages), fmt.Sprintf("%d", after.Messages))
	t.AddRow("shared_mem_sync_ops", fmt.Sprintf("%d", before.SharedMemoryOps), fmt.Sprintf("%d", after.SharedMemoryOps))
	t.AddRow("steady_period_cycles", fmt.Sprintf("%.1f", rep.PeriodBefore), fmt.Sprintf("%.1f", rep.PeriodAfter))
	return t
}

// Fig3 regenerates the synchronization-optimization result of figure 3
// (3-PE actor D): redundant acknowledgement edges are removed.
func Fig3() (*Table, error) {
	return resyncTable(
		"Figure 3 — resynchronization, 3-PE actor D (application 1)",
		Fig3Graph(3),
		"paper: redundant synchronization edges disappear after resynchronization; throughput preserved",
	), nil
}

// Fig5 regenerates the synchronization-optimization result of figure 5
// (2-PE particle filter).
func Fig5() (*Table, error) {
	return resyncTable(
		"Figure 5 — resynchronization, 2-PE particle filter (application 2)",
		Fig5Graph(),
		"paper: the resampling split keeps only the necessary synchronizations after optimization",
	), nil
}

// Fig3DOT and Fig5DOT render the before/after graphs in Graphviz format
// for visual comparison with the paper's figures.
func Fig3DOT(nPE int) (before, after string) {
	g := Fig3Graph(nPE)
	before = g.DOT("fig3-before")
	syncgraph.Resynchronize(g)
	after = g.DOT("fig3-after")
	return before, after
}

// Fig5DOT renders the figure-5 graphs.
func Fig5DOT() (before, after string) {
	g := Fig5Graph()
	before = g.DOT("fig5-before")
	syncgraph.Resynchronize(g)
	after = g.DOT("fig5-after")
	return before, after
}
