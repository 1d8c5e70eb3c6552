package spi

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/syncgraph"
)

// ResyncPlan is the §4 synchronization verdict keyed by concrete dataflow
// edges: for every interprocessor UBS edge whose acknowledgement feedback
// was proven redundant, Suppressed maps the edge's ID to a human-readable
// covering-path witness (the chain of surviving synchronization edges
// whose cumulative delay implies the acknowledgement's constraint). The
// deployment layers (dist, partition, spigraph) all consume this one plan,
// so the wire-negotiated suppression set and the offline analysis can
// never drift apart.
type ResyncPlan struct {
	// Report is the raw resynchronization summary (counts, period).
	Report *syncgraph.ResyncReport
	// Suppressed maps each suppressible dataflow edge to its witness.
	// Only UBS interprocessor edges appear: BBS credits are flow
	// control, never redundant bookkeeping.
	Suppressed map[dataflow.EdgeID]string
	// AckFeedback counts the acknowledgement feedback edges added to the
	// synchronization graph; AckSurviving counts those the optimization
	// could not remove.
	AckFeedback, AckSurviving int
}

// SuppressedIDs returns the suppression set as sorted uint16 edge IDs —
// the form transport.LinkConfig.ResyncEdges takes.
func (p *ResyncPlan) SuppressedIDs() []uint16 {
	ids := make([]uint16, 0, len(p.Suppressed))
	for eid := range p.Suppressed {
		ids = append(ids, uint16(eid))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ResyncSuppression runs the paper's §4 synchronization optimization for
// a graph+mapping and returns the edge-keyed suppression plan. The set is
// a pure function of the graph and the processor mapping — worker
// placement never enters — so every node (and every orchestration epoch)
// that computes it independently arrives at the same set.
func ResyncSuppression(g *dataflow.Graph, m *sched.Mapping) (*ResyncPlan, error) {
	pl, err := newGraphPlan(g, 1)
	if err != nil {
		return nil, err
	}
	return pl.resyncSuppression(m)
}

// resyncSuppression is ResyncSuppression on a graph already planned, at any
// blocking factor: the edge protocols it reads do not depend on it.
func (pl *graphPlan) resyncSuppression(m *sched.Mapping) (*ResyncPlan, error) {
	g := pl.g
	ipc, err := syncgraph.BuildIPCGraph(g, m)
	if err != nil {
		return nil, err
	}
	sg := syncgraph.SynchronizationGraph(ipc)
	added := syncgraph.AddAllFeedback(sg, 1)
	rep := syncgraph.Resynchronize(sg, syncgraph.ResyncOptions{})

	surviving := 0
	for _, e := range sg.EdgesOfKind(syncgraph.SyncEdge) {
		if strings.HasPrefix(e.Label, "ack:") {
			surviving++
		}
	}

	plan := &ResyncPlan{
		Report:      rep,
		Suppressed:  map[dataflow.EdgeID]string{},
		AckFeedback: added, AckSurviving: surviving,
	}
	if added == 0 {
		return plan, nil
	}

	byName := map[string]dataflow.EdgeID{}
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		if m.Proc[e.Src] != m.Proc[e.Snk] {
			byName[e.Name] = eid
		}
	}

	removed := append(append([]syncgraph.Edge{}, rep.RemovedFirst...), rep.RemovedByResync...)
	for _, ack := range removed {
		name, ok := strings.CutPrefix(ack.Label, "ack:")
		if !ok {
			continue
		}
		eid, ok := byName[name]
		if !ok {
			continue
		}
		// Protocol selection must match the deployment exactly: only UBS
		// edges carry acknowledgements, so only they can have one suppressed.
		if Protocol(pl.edge(eid).Protocol) != UBS {
			continue
		}
		// The removal is only actionable with an explicit witness: a path
		// of surviving synchronization edges from the acknowledging task
		// back to the sender whose delay is within the ack's slack.
		witness, ok := coveringPath(sg, ack.Src, ack.Snk, ack.Delay)
		if !ok {
			continue
		}
		plan.Suppressed[eid] = witness
	}
	return plan, nil
}

// coveringPath finds a minimum-delay path src→dst over the optimized
// synchronization graph and renders it as a witness string, reporting
// whether its total delay is within maxDelay — the transitive covering
// path that makes the removed acknowledgement edge redundant.
func coveringPath(sg *syncgraph.Graph, src, dst syncgraph.VertexID, maxDelay int64) (string, bool) {
	const inf = int64(1) << 62
	n := sg.NumVertices()
	dist := make([]int64, n)
	pred := make([]int, n) // index into edges, -1 = none
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
		pred[i] = -1
	}
	edges := sg.Edges()
	dist[src] = 0
	for {
		// Dense extract-min: sync graphs are small (one vertex per actor),
		// so O(V^2 + VE) keeps this dependency-free and deterministic.
		u, best := -1, inf
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for i, e := range edges {
			if e.Src != syncgraph.VertexID(u) {
				continue
			}
			if d := dist[u] + e.Delay; d < dist[e.Snk] {
				dist[e.Snk] = d
				pred[e.Snk] = i
			}
		}
	}
	if dist[dst] > maxDelay {
		return "", false
	}
	// Reconstruct dst←src and render forward.
	var hops []syncgraph.Edge
	for v := dst; v != src; {
		i := pred[v]
		if i < 0 {
			return "", false
		}
		hops = append(hops, edges[i])
		v = edges[i].Src
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s", sg.Vertex(src).Name)
	for i := len(hops) - 1; i >= 0; i-- {
		e := hops[i]
		fmt.Fprintf(&b, " -[%s d=%d]-> %s", e.Label, e.Delay, sg.Vertex(e.Snk).Name)
	}
	fmt.Fprintf(&b, " (delay %d <= %d)", dist[dst], maxDelay)
	return b.String(), true
}

// OptimizeSync runs the paper's §4 synchronization optimization on a
// system and applies the verdict to its deployment: the IPC graph is
// derived from the mapping, UBS acknowledgement edges are added as
// synchronization feedback, and resynchronization removes the redundant
// ones. If EVERY acknowledgement edge is proven redundant, the deployment
// suppresses acknowledgement messages entirely (SuppressAcks) — the
// "removal of redundant acknowledgement edges for SPI actors" the paper
// describes, automated. Deployments that need the per-edge decision (the
// distributed runtime's per-link suppression sets) use ResyncSuppression,
// which this delegates to.
//
// The returned report also serves diagnostic display (counts, period).
func OptimizeSync(sys *System) (*syncgraph.ResyncReport, error) {
	plan, err := ResyncSuppression(sys.Graph, sys.Mapping)
	if err != nil {
		return nil, err
	}
	if plan.AckFeedback > 0 && plan.AckSurviving == 0 {
		sys.SuppressAcks = true
	}
	return plan.Report, nil
}
