package vts

import (
	"fmt"

	"repro/internal/dataflow"
)

// Bounds collects the buffer-memory bounds of one converted edge, following
// §3 of the paper.
type Bounds struct {
	Edge dataflow.EdgeID
	// CSDF is c_sdf(e): an upper bound on the number of packed tokens (one
	// firing's production) that coexist on e at any time under the analyzed
	// schedule, computed on the converted (pure SDF) graph.
	CSDF int64
	// BMax is b_max(e): the maximum bytes in one packed token.
	BMax int64
	// CE is c(e) = c_sdf(e) * b_max(e) — eq. 1: the total size bound of
	// the packed tokens on e.
	CE int64
	// Gamma is Γ: the total delay on a minimum-delay directed path from
	// snk(e) back to src(e) — the feedback slack that limits how far the
	// producer can run ahead of the consumer in a self-timed execution.
	// Gamma is -1 when no such path exists (the producer is unthrottled).
	Gamma int64
	// IPC is B(e) = (Γ + delay(e)) * c(e) — eq. 2: the upper bound on the
	// IPC buffer size in bytes. IPC is -1 when Gamma is -1: without a
	// feedback path the buffer cannot be bounded statically and the edge
	// must use the SPI_UBS protocol.
	IPC int64
	// Bounded reports whether IPC is finite (choose SPI_BBS) or not
	// (choose SPI_UBS).
	Bounded bool
}

// ComputeBounds derives the VTS buffer bounds for every edge of a converted
// graph. The c_sdf values come from simulating a PASS of the converted
// graph (any admissible schedule yields a valid bound); Γ comes from
// minimum-delay paths over the graph.
func ComputeBounds(r *Result) ([]Bounds, error) {
	g := r.Graph
	sched, err := g.FindPASS()
	if err != nil {
		return nil, fmt.Errorf("vts: converted graph has no PASS: %w", err)
	}
	csdf, err := g.BufferBounds(sched)
	if err != nil {
		return nil, err
	}
	out := make([]Bounds, 0, g.NumEdges())
	// Cache min-delay paths per distinct sink actor.
	paths := make(map[dataflow.ActorID][]int64)
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		info := r.Edges[eid]
		b := Bounds{
			Edge: eid,
			CSDF: (csdf[eid] + int64(e.Produce.Rate) - 1) / int64(e.Produce.Rate),
			BMax: info.BMax,
		}
		b.CE = b.CSDF * b.BMax
		dist, ok := paths[e.Snk]
		if !ok {
			dist = g.MinDelayPaths(e.Snk)
			paths[e.Snk] = dist
		}
		gamma := dist[e.Src]
		if gamma == dataflow.InfiniteDelay {
			b.Gamma = -1
			b.IPC = -1
			b.Bounded = false
		} else {
			b.Gamma = gamma
			b.IPC = (gamma + int64(e.Delay)) * b.CE
			b.Bounded = true
			// A bounded buffer still needs room for at least one packed
			// token to make progress; eq. 2 can evaluate to zero when the
			// feedback cycle carries all its delay on e itself and
			// delay(e)=0 with Γ=0, which cannot occur on a live graph, but
			// we clamp defensively so a BBS ring buffer is always usable.
			if b.IPC < b.CE {
				b.IPC = b.CE
			}
		}
		out = append(out, b)
	}
	return out, nil
}

// TotalBoundedMemory sums the IPC buffer bounds of all bounded edges and
// reports how many edges are unbounded (UBS).
func TotalBoundedMemory(bounds []Bounds) (totalBytes int64, unbounded int) {
	for _, b := range bounds {
		if b.Bounded {
			totalBytes += b.IPC
		} else {
			unbounded++
		}
	}
	return totalBytes, unbounded
}
