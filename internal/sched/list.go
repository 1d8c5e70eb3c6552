package sched

import (
	"fmt"
	"sort"

	"repro/internal/dataflow"
)

// Levels computes, per actor, the longest path (in cycles of block
// execution time, q[a]*ExecCycles) from the actor to any sink through the
// zero-delay precedence structure. This is the classic "level" priority of
// highest-level-first (HLF) list scheduling: actors on the critical path
// get scheduled first.
func Levels(g *dataflow.Graph, q dataflow.Repetitions) ([]int64, error) {
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	blockCost := func(a dataflow.ActorID) int64 {
		c := g.Actor(a).ExecCycles
		if c <= 0 {
			c = 1
		}
		return q[a] * c
	}
	blocking := func(e *dataflow.Edge) bool {
		need := e.Consume.Rate
		if e.Consume.Kind == dataflow.DynamicPort {
			need = 1
		}
		return e.Delay < need
	}
	levels := make([]int64, g.NumActors())
	// Process in reverse topological order: level(a) = cost(a) + max level
	// of zero-delay successors.
	for i := len(order) - 1; i >= 0; i-- {
		a := order[i]
		var best int64
		for _, eid := range g.Out(a) {
			e := g.Edge(eid)
			if !blocking(e) {
				continue
			}
			if levels[e.Snk] > best {
				best = levels[e.Snk]
			}
		}
		levels[a] = blockCost(a) + best
	}
	return levels, nil
}

// ListSchedule builds a Mapping for nprocs processors using HLF list
// scheduling at block granularity: actors are considered in order of
// decreasing level (ties broken by actor ID for determinism) subject to
// zero-delay precedence, and each is placed on the processor that can start
// it earliest, accounting for a fixed per-edge communication penalty when a
// predecessor lives on a different processor.
//
// commCycles is the compile-time estimate of one interprocessor transfer's
// latency, used only to steer placement (the detailed cost comes from the
// platform simulator later). Pass 0 to ignore communication during
// placement.
func ListSchedule(g *dataflow.Graph, nprocs int, commCycles int64) (*Mapping, error) {
	if nprocs <= 0 {
		return nil, fmt.Errorf("sched: nprocs = %d", nprocs)
	}
	q, err := g.RepetitionsVector()
	if err != nil {
		return nil, err
	}
	levels, err := Levels(g, q)
	if err != nil {
		return nil, err
	}
	blockCost := func(a dataflow.ActorID) int64 {
		c := g.Actor(a).ExecCycles
		if c <= 0 {
			c = 1
		}
		return q[a] * c
	}
	blocking := func(e *dataflow.Edge) bool {
		need := e.Consume.Rate
		if e.Consume.Kind == dataflow.DynamicPort {
			need = 1
		}
		return e.Delay < need
	}

	n := g.NumActors()
	indeg := make([]int, n)
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		if blocking(e) {
			indeg[e.Snk]++
		}
	}
	ready := make([]dataflow.ActorID, 0, n)
	for a := 0; a < n; a++ {
		if indeg[a] == 0 {
			ready = append(ready, dataflow.ActorID(a))
		}
	}

	procFree := make([]int64, nprocs) // time each processor becomes free
	finish := make([]int64, n)        // finish time of each scheduled actor block
	m := &Mapping{
		NumProcs: nprocs,
		Proc:     make([]Processor, n),
		Order:    make([][]dataflow.ActorID, nprocs),
	}

	scheduled := 0
	for scheduled < n {
		if len(ready) == 0 {
			return nil, fmt.Errorf("sched: precedence structure is cyclic")
		}
		// Pick the ready actor with the highest level.
		sort.Slice(ready, func(i, j int) bool {
			if levels[ready[i]] != levels[ready[j]] {
				return levels[ready[i]] > levels[ready[j]]
			}
			return ready[i] < ready[j]
		})
		a := ready[0]
		ready = ready[1:]

		// Earliest start on each processor = max(proc free, data ready).
		bestProc := Processor(0)
		var bestStart int64 = -1
		for p := 0; p < nprocs; p++ {
			start := procFree[p]
			for _, eid := range g.In(a) {
				e := g.Edge(eid)
				if !blocking(e) {
					continue
				}
				avail := finish[e.Src]
				if m.Proc[e.Src] != Processor(p) {
					avail += commCycles
				}
				if avail > start {
					start = avail
				}
			}
			if bestStart == -1 || start < bestStart {
				bestStart = start
				bestProc = Processor(p)
			}
		}
		m.Proc[a] = bestProc
		m.Order[bestProc] = append(m.Order[bestProc], a)
		finish[a] = bestStart + blockCost(a)
		procFree[bestProc] = finish[a]
		scheduled++

		for _, eid := range g.Out(a) {
			e := g.Edge(eid)
			if !blocking(e) {
				continue
			}
			indeg[e.Snk]--
			if indeg[e.Snk] == 0 {
				ready = append(ready, e.Snk)
			}
		}
	}
	return m, nil
}
