// Package sched implements multiprocessor scheduling of SDF graphs for the
// SPI framework: actor-to-processor assignment, per-processor firing order,
// and a self-timed execution analysis.
//
// SPI (paper §2) uses the *self-timed* scheduling model: the assignment and
// ordering are fixed at compile time, but run-time behaviour is governed
// only by data availability — processors do not busy-wait on a global
// clock. This package builds such schedules (HLF list scheduling) and
// predicts their timing (SelfTimed simulation at block granularity).
package sched

import (
	"fmt"

	"repro/internal/dataflow"
)

// Processor identifies one processing element (PE) in the target platform.
type Processor int

// Mapping is a compile-time multiprocessor schedule: an assignment of each
// actor to a processor and, per processor, the order in which its actors
// execute within one graph iteration. Each actor appears exactly once in
// its processor's order and executes as a block of q[a] firings (coarse-
// grain block scheduling, the granularity the paper's applications use).
type Mapping struct {
	// NumProcs is the number of processors.
	NumProcs int
	// Proc maps each actor (by ID index) to its processor.
	Proc []Processor
	// Order lists, per processor, the actors it executes in sequence
	// during one graph iteration.
	Order [][]dataflow.ActorID
}

// Validate checks that the mapping covers every actor of g exactly once and
// references only valid processors.
func (m *Mapping) Validate(g *dataflow.Graph) error {
	if m.NumProcs <= 0 {
		return fmt.Errorf("sched: mapping has %d processors", m.NumProcs)
	}
	if len(m.Proc) != g.NumActors() {
		return fmt.Errorf("sched: mapping covers %d actors, graph has %d", len(m.Proc), g.NumActors())
	}
	if len(m.Order) != m.NumProcs {
		return fmt.Errorf("sched: mapping has %d order lists for %d processors", len(m.Order), m.NumProcs)
	}
	seen := make([]bool, g.NumActors())
	for p, order := range m.Order {
		for _, a := range order {
			if int(a) < 0 || int(a) >= g.NumActors() {
				return fmt.Errorf("sched: order for processor %d references unknown actor %d", p, a)
			}
			if seen[a] {
				return fmt.Errorf("sched: actor %s appears twice in the mapping", g.Actor(a).Name)
			}
			seen[a] = true
			if m.Proc[a] != Processor(p) {
				return fmt.Errorf("sched: actor %s ordered on processor %d but assigned to %d",
					g.Actor(a).Name, p, m.Proc[a])
			}
		}
	}
	for a, ok := range seen {
		if !ok {
			return fmt.Errorf("sched: actor %s missing from the mapping", g.Actor(dataflow.ActorID(a)).Name)
		}
	}
	return nil
}

// InterprocessorEdges returns the IDs of edges whose endpoints live on
// different processors — the edges for which SPI inserts send/receive
// communication actor pairs.
func (m *Mapping) InterprocessorEdges(g *dataflow.Graph) []dataflow.EdgeID {
	var out []dataflow.EdgeID
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		if m.Proc[e.Src] != m.Proc[e.Snk] {
			out = append(out, eid)
		}
	}
	return out
}
