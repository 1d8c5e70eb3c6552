// Package syncgraph implements the synchronization-graph model used by SPI
// to analyze and optimize the synchronization structure of self-timed
// multiprocessor implementations (paper §4, following Sriram &
// Bhattacharyya, "Embedded Multiprocessors: Scheduling and Synchronization").
//
// Given a dataflow graph and its multiprocessor schedule, the IPC graph
// G_ipc instantiates a vertex per task, connects same-processor tasks in
// execution order, adds a unit-delay loopback edge per processor, and adds
// an IPC edge for every dataflow edge that crosses processors. Each edge
// (v_j -> v_i, delay d) encodes the constraint
//
//	start(v_i, k) >= end(v_j, k - d)
//
// The synchronization graph G_s is G_ipc plus the protocol feedback edges
// (AddAllFeedback); *redundant* edges — whose constraint is implied by the
// rest of the graph — can be removed, and *resynchronization* inserts new
// edges that render several existing ones redundant, reducing net
// synchronization cost. SPI uses this to eliminate redundant
// acknowledgement traffic of the SPI_UBS protocol on distributed-memory
// targets.
package syncgraph

import (
	"fmt"
	"sort"
	"strings"
)

// VertexID identifies a task vertex within a Graph.
type VertexID int

// EdgeKind classifies synchronization-graph edges.
type EdgeKind uint8

const (
	// IntraprocEdge sequences two tasks on the same processor. Structural:
	// never removed (the processor's program order enforces it for free).
	IntraprocEdge EdgeKind = iota
	// LoopbackEdge is the unit-delay edge from a processor's last task back
	// to its first, encoding iteration succession. Structural.
	LoopbackEdge
	// IPCEdge carries data between processors; it implies a synchronization
	// but the data transfer itself cannot be removed.
	IPCEdge
	// SyncEdge is a pure synchronization (e.g., an acknowledgement or a
	// resynchronization edge); removable when redundant.
	SyncEdge
)

func (k EdgeKind) String() string {
	switch k {
	case IntraprocEdge:
		return "intraproc"
	case LoopbackEdge:
		return "loopback"
	case IPCEdge:
		return "ipc"
	case SyncEdge:
		return "sync"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Vertex is a task in the synchronization graph.
type Vertex struct {
	// Name is a human-readable label ("Send input frame", "PE1", ...).
	Name string
	// Proc is the processor that executes the task.
	Proc int
	// ExecCycles is the task's execution time, used by throughput analysis.
	ExecCycles int64
}

// Edge is a synchronization constraint start(Snk,k) >= end(Src, k-Delay).
type Edge struct {
	Src, Snk VertexID
	// Delay in iteration units.
	Delay int64
	Kind  EdgeKind
	// Label annotates what the edge synchronizes ("frame", "ack:coeffs").
	Label string
}

// Graph is a synchronization graph. The zero value is empty and ready to
// use.
type Graph struct {
	verts []Vertex
	edges []Edge
	out   [][]int // edge indices
	in    [][]int
	// built is the edge count when Resynchronize first ran (0 before):
	// the edges from there on are ones it inserted.
	built int
}

// NewGraph returns an empty synchronization graph.
func NewGraph() *Graph { return &Graph{} }

// AddVertex adds a task and returns its ID.
func (g *Graph) AddVertex(name string, proc int, execCycles int64) VertexID {
	id := VertexID(len(g.verts))
	g.verts = append(g.verts, Vertex{Name: name, Proc: proc, ExecCycles: execCycles})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddEdge adds a synchronization edge and returns its index.
func (g *Graph) AddEdge(src, snk VertexID, delay int64, kind EdgeKind, label string) int {
	if delay < 0 {
		panic(fmt.Sprintf("syncgraph: negative delay %d on edge %s", delay, label))
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{Src: src, Snk: snk, Delay: delay, Kind: kind, Label: label})
	g.out[src] = append(g.out[src], idx)
	g.in[snk] = append(g.in[snk], idx)
	return idx
}

// NumVertices returns the number of task vertices.
func (g *Graph) NumVertices() int { return len(g.verts) }

// NumEdges returns the number of live (non-removed) edges.
func (g *Graph) NumEdges() int { return len(g.liveEdgeIndices()) }

// Vertex returns the vertex with the given ID.
func (g *Graph) Vertex(id VertexID) *Vertex { return &g.verts[id] }

// Edges returns copies of all live edges in insertion order.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, i := range g.liveEdgeIndices() {
		out = append(out, g.edges[i])
	}
	return out
}

// EdgesOfKind returns live edges of the given kind.
func (g *Graph) EdgesOfKind(kind EdgeKind) []Edge {
	var out []Edge
	for _, i := range g.liveEdgeIndices() {
		if g.edges[i].Kind == kind {
			out = append(out, g.edges[i])
		}
	}
	return out
}

// removed edges are tombstoned so indices stay stable during optimization.
const removedKind EdgeKind = 0xFF

func (g *Graph) liveEdgeIndices() []int {
	out := make([]int, 0, len(g.edges))
	for i := range g.edges {
		if g.edges[i].Kind != removedKind {
			out = append(out, i)
		}
	}
	return out
}

// Clone returns a deep copy (live edges only are semantically relevant, but
// tombstones are preserved so indices remain comparable).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		built: g.built,
		verts: append([]Vertex(nil), g.verts...),
		edges: append([]Edge(nil), g.edges...),
		out:   make([][]int, len(g.out)),
		in:    make([][]int, len(g.in)),
	}
	for i := range g.out {
		c.out[i] = append([]int(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]int(nil), g.in[i]...)
	}
	return c
}

// Unoptimized returns a copy of g as built, before RemoveRedundant and
// Resynchronize: the edges they removed (all of them sync edges) restored,
// the ones Resynchronize inserted dropped.
func (g *Graph) Unoptimized() *Graph {
	c := NewGraph()
	for _, v := range g.verts {
		c.AddVertex(v.Name, v.Proc, v.ExecCycles)
	}
	edges := g.edges
	if g.built > 0 {
		edges = edges[:g.built]
	}
	for _, e := range edges {
		if e.Kind == removedKind {
			e.Kind = SyncEdge
		}
		c.AddEdge(e.Src, e.Snk, e.Delay, e.Kind, e.Label)
	}
	return c
}

// SyncCount returns the number of live edges that require run-time
// synchronization operations: IPC edges and pure sync edges. Intraprocessor
// and loopback edges are free (program order).
func (g *Graph) SyncCount() int {
	n := 0
	for _, i := range g.liveEdgeIndices() {
		if k := g.edges[i].Kind; k == IPCEdge || k == SyncEdge {
			n++
		}
	}
	return n
}

// String renders vertices and live edges, sorted, for debugging and tests.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "syncgraph: %d vertices, %d live edges\n", len(g.verts), g.NumEdges())
	lines := make([]string, 0, len(g.edges))
	for _, i := range g.liveEdgeIndices() {
		e := &g.edges[i]
		lines = append(lines, fmt.Sprintf("  %s -> %s delay=%d kind=%s label=%q",
			g.verts[e.Src].Name, g.verts[e.Snk].Name, e.Delay, e.Kind, e.Label))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	return b.String()
}

// DOT renders the graph in Graphviz format: solid edges for data/structure,
// dashed for pure synchronization, matching the paper's figures.
func (g *Graph) DOT(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", title)
	for i := range g.verts {
		v := &g.verts[i]
		fmt.Fprintf(&b, "  v%d [label=%q];\n", i, fmt.Sprintf("%s\\n(P%d)", v.Name, v.Proc))
	}
	for _, i := range g.liveEdgeIndices() {
		e := &g.edges[i]
		style := "solid"
		if e.Kind == SyncEdge {
			style = "dashed"
		}
		attrs := fmt.Sprintf("style=%s", style)
		if e.Delay > 0 {
			attrs += fmt.Sprintf(`, label="%d"`, e.Delay)
		}
		fmt.Fprintf(&b, "  v%d -> v%d [%s];\n", e.Src, e.Snk, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}
