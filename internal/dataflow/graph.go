// Package dataflow implements synchronous dataflow (SDF) graph modeling for
// signal processing applications, in the style of Lee & Messerschmitt.
//
// An SDF graph consists of actors (coarse-grain functional blocks) connected
// by FIFO edges. Each edge declares how many tokens its source actor produces
// and its sink actor consumes per firing. Because the rates are known at
// compile time, the graph admits static analysis: a repetitions vector that
// balances production and consumption, periodic admissible sequential
// schedules (PASS), and bounded buffer sizes.
//
// The package also carries the extensions needed by the Signal Passing
// Interface (SPI) framework: dynamic ports with declared upper bounds on
// their rates (the raw material for the Variable Token Size conversion in
// package vts), per-token byte sizes, and interprocessor-mapping metadata.
package dataflow

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ActorID identifies an actor within a single Graph. IDs are dense and
// assigned in insertion order starting at 0.
type ActorID int

// EdgeID identifies an edge within a single Graph. IDs are dense and
// assigned in insertion order starting at 0.
type EdgeID int

// NoActor is the zero-value sentinel for "no actor".
const NoActor ActorID = -1

// Actor is a coarse-grain dataflow actor. Actors are pure graph nodes: the
// functional behaviour lives with the runtime (package spi) or the
// application packages; the graph only needs names and cost annotations.
type Actor struct {
	// Name is a human-readable label, unique within the graph.
	Name string
	// ExecCycles is the nominal execution time of one firing, in processor
	// cycles. Used by schedulers and by the platform simulator. Zero means
	// "unknown"; analyses that need a cost treat zero as 1.
	ExecCycles int64
}

// PortKind distinguishes static SDF ports from dynamic ports whose rate
// varies at run time (bounded above, per the VTS restriction).
type PortKind uint8

const (
	// StaticPort produces/consumes a fixed token count per firing.
	StaticPort PortKind = iota
	// DynamicPort produces/consumes a run-time-variable token count per
	// firing, bounded above by the port's declared maximum rate.
	DynamicPort
)

func (k PortKind) String() string {
	switch k {
	case StaticPort:
		return "static"
	case DynamicPort:
		return "dynamic"
	default:
		return fmt.Sprintf("PortKind(%d)", uint8(k))
	}
}

// Port describes one endpoint of an edge.
type Port struct {
	// Kind says whether the rate is fixed or run-time variable.
	Kind PortKind
	// Rate is the tokens transferred per firing. For a DynamicPort this is
	// the declared upper bound on the rate (the paper's "x has an upper
	// bound of 10"); the VTS conversion turns it into a packed token of
	// bounded size moving at rate 1.
	Rate int
}

// Edge is a FIFO connection between a producer and a consumer actor.
type Edge struct {
	// Name is a human-readable label, unique within the graph.
	Name string
	// Src and Snk are the producing and consuming actors.
	Src, Snk ActorID
	// Produce is the source port (production rate).
	Produce Port
	// Consume is the sink port (consumption rate).
	Consume Port
	// Delay is the number of initial tokens on the edge (unit delays).
	Delay int
	// TokenBytes is the size in bytes of one raw (unpacked) token.
	// Zero means "unknown"; size-dependent analyses treat zero as 1.
	TokenBytes int
}

// Dynamic reports whether either endpoint of the edge is a dynamic port.
func (e *Edge) Dynamic() bool {
	return e.Produce.Kind == DynamicPort || e.Consume.Kind == DynamicPort
}

// Graph is a mutable SDF graph. The zero value is an empty graph ready to
// use. Graph is not safe for concurrent mutation.
type Graph struct {
	name   string
	actors []Actor
	edges  []Edge
	out    [][]EdgeID // outgoing edge IDs per actor
	in     [][]EdgeID // incoming edge IDs per actor

	actorByName map[string]ActorID
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{name: name, actorByName: make(map[string]ActorID)}
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// NumActors returns the number of actors in the graph.
func (g *Graph) NumActors() int { return len(g.actors) }

// NumEdges returns the number of edges in the graph.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddActor adds an actor with the given name and nominal execution time and
// returns its ID. Adding a second actor with the same name panics: graphs
// are built by construction code, and a duplicate name is a programming
// error, not an input error.
func (g *Graph) AddActor(name string, execCycles int64) ActorID {
	if g.actorByName == nil {
		g.actorByName = make(map[string]ActorID)
	}
	if _, dup := g.actorByName[name]; dup {
		panic(fmt.Sprintf("dataflow: duplicate actor name %q", name))
	}
	id := ActorID(len(g.actors))
	g.actors = append(g.actors, Actor{Name: name, ExecCycles: execCycles})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.actorByName[name] = id
	return id
}

// Actor returns the actor with the given ID.
func (g *Graph) Actor(id ActorID) *Actor {
	return &g.actors[id]
}

// ActorByName returns the ID of the named actor, or NoActor and false.
func (g *Graph) ActorByName(name string) (ActorID, bool) {
	id, ok := g.actorByName[name]
	if !ok {
		return NoActor, false
	}
	return id, true
}

// EdgeSpec carries the optional attributes of a new edge. The zero value
// means: static ports, no delay, 1-byte tokens.
type EdgeSpec struct {
	Delay      int
	TokenBytes int
	// ProduceDynamic / ConsumeDynamic mark the corresponding port as
	// dynamic; the rate passed to AddEdge is then interpreted as the upper
	// bound on the run-time rate.
	ProduceDynamic bool
	ConsumeDynamic bool
}

// AddEdge adds an edge from src to snk with the given production and
// consumption rates and returns its ID. Rates must be positive.
func (g *Graph) AddEdge(name string, src, snk ActorID, produce, consume int, spec EdgeSpec) EdgeID {
	if produce <= 0 || consume <= 0 {
		panic(fmt.Sprintf("dataflow: edge %q has non-positive rate (produce=%d consume=%d)", name, produce, consume))
	}
	if int(src) >= len(g.actors) || int(snk) >= len(g.actors) || src < 0 || snk < 0 {
		panic(fmt.Sprintf("dataflow: edge %q references unknown actor", name))
	}
	if spec.Delay < 0 {
		panic(fmt.Sprintf("dataflow: edge %q has negative delay %d", name, spec.Delay))
	}
	pk, ck := StaticPort, StaticPort
	if spec.ProduceDynamic {
		pk = DynamicPort
	}
	if spec.ConsumeDynamic {
		ck = DynamicPort
	}
	tb := spec.TokenBytes
	if tb == 0 {
		tb = 1
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{
		Name:       name,
		Src:        src,
		Snk:        snk,
		Produce:    Port{Kind: pk, Rate: produce},
		Consume:    Port{Kind: ck, Rate: consume},
		Delay:      spec.Delay,
		TokenBytes: tb,
	})
	g.out[src] = append(g.out[src], id)
	g.in[snk] = append(g.in[snk], id)
	return id
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) *Edge {
	return &g.edges[id]
}

// Out returns the IDs of edges leaving the actor.
func (g *Graph) Out(a ActorID) []EdgeID { return g.out[a] }

// In returns the IDs of edges entering the actor.
func (g *Graph) In(a ActorID) []EdgeID { return g.in[a] }

// Actors returns the actor IDs in insertion order.
func (g *Graph) Actors() []ActorID {
	ids := make([]ActorID, len(g.actors))
	for i := range ids {
		ids[i] = ActorID(i)
	}
	return ids
}

// Edges returns the edge IDs in insertion order.
func (g *Graph) Edges() []EdgeID {
	ids := make([]EdgeID, len(g.edges))
	for i := range ids {
		ids[i] = EdgeID(i)
	}
	return ids
}

// Validate checks structural invariants that the incremental builders cannot
// enforce: the graph must have at least one actor, and every dynamic port
// must carry a positive upper bound (the VTS restriction from the paper:
// "we require that an upper bound on the token size be specified for each
// dynamic port").
func (g *Graph) Validate() error {
	if len(g.actors) == 0 {
		return errors.New("dataflow: graph has no actors")
	}
	for i := range g.edges {
		e := &g.edges[i]
		if e.Produce.Rate <= 0 || e.Consume.Rate <= 0 {
			return fmt.Errorf("dataflow: edge %q has non-positive rate", e.Name)
		}
		if e.TokenBytes <= 0 {
			return fmt.Errorf("dataflow: edge %q has non-positive token size", e.Name)
		}
	}
	return nil
}

// String renders a compact description of the graph, one edge per line,
// suitable for debugging and golden tests.
func (g *Graph) String() string {
	s := fmt.Sprintf("graph %q: %d actors, %d edges\n", g.name, len(g.actors), len(g.edges))
	names := make([]string, 0, len(g.edges))
	for i := range g.edges {
		e := &g.edges[i]
		dyn := ""
		if e.Dynamic() {
			dyn = " [dynamic]"
		}
		names = append(names, fmt.Sprintf("  %s: %s -(%d)-> (%d)- %s delay=%d bytes=%d%s",
			e.Name, g.actors[e.Src].Name, e.Produce.Rate, e.Consume.Rate,
			g.actors[e.Snk].Name, e.Delay, e.TokenBytes, dyn))
	}
	sort.Strings(names)
	for _, n := range names {
		s += n + "\n"
	}
	return s
}

// DOT renders the graph in Graphviz format: boxes for actors, edge labels
// showing produce/consume rates, delays as "•d", dashed lines for dynamic
// edges.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=box];\n", g.name)
	for i := range g.actors {
		fmt.Fprintf(&b, "  a%d [label=%q];\n", i, g.actors[i].Name)
	}
	for i := range g.edges {
		e := &g.edges[i]
		label := fmt.Sprintf("%d:%d", e.Produce.Rate, e.Consume.Rate)
		if e.Delay > 0 {
			label += fmt.Sprintf(" •%d", e.Delay)
		}
		style := "solid"
		if e.Dynamic() {
			style = "dashed"
		}
		fmt.Fprintf(&b, "  a%d -> a%d [label=%q, style=%s];\n", e.Src, e.Snk, label, style)
	}
	b.WriteString("}\n")
	return b.String()
}
