// Package vts implements the Variable Token Size (VTS) model from the SPI
// paper: a mechanism that converts dynamic-rate dataflow edges into
// static-rate edges carrying variable-size *packed* tokens.
//
// In dynamic dataflow, an actor's production/consumption rates may change at
// run time depending on its data. General dynamic dataflow defeats static
// analysis. VTS instead keeps the *number* of tokens static (one packed
// token per firing) and lets the token *size* vary, bounded above by a
// declared maximum. The converted graph is pure SDF, so repetitions vectors,
// PASS scheduling and buffer bounds all apply, while the run-time payload
// still varies — the paper's eq. 1 and eq. 2 then bound total buffer memory.
package vts

import (
	"fmt"

	"repro/internal/dataflow"
)

// EdgeInfo records the VTS attributes of one edge of a converted graph.
type EdgeInfo struct {
	// Original is the edge ID in the source graph; the converted graph
	// preserves edge IDs, so this equals the converted edge's own ID.
	Original dataflow.EdgeID
	// Dynamic reports whether the original edge had a dynamic port and was
	// therefore rewritten.
	Dynamic bool
	// MaxRawTokens is the upper bound on raw (unpacked) tokens carried by
	// one packed token: the larger of the two declared port bounds. For
	// static edges it is the (equal) number of raw tokens per transfer
	// aggregated into one packed token, i.e. the production rate.
	MaxRawTokens int
	// RawTokenBytes is the size of one raw token in bytes.
	RawTokenBytes int
	// BMax is b_max(e): the maximum number of bytes in a packed token,
	// MaxRawTokens * RawTokenBytes.
	BMax int64
}

// Result is the outcome of a VTS conversion.
type Result struct {
	// Graph is the converted pure-SDF graph. Actor IDs match the original
	// graph; edge IDs match the original graph's edge IDs.
	Graph *dataflow.Graph
	// Edges holds per-edge VTS attributes, indexed by edge ID.
	Edges []EdgeInfo
}

// Info returns the VTS attributes of the given edge.
func (r *Result) Info(e dataflow.EdgeID) EdgeInfo { return r.Edges[e] }

// Convert performs the VTS conversion of g: every edge with a dynamic port
// becomes a static rate-1/rate-1 edge whose token size is the packed-token
// bound b_max(e) = maxRate * rawTokenBytes. Static edges pass through
// unchanged. The input graph is not modified.
//
// Convert returns an error if the resulting graph is not sample-rate
// consistent — the paper's condition "if by application of the above
// principle to all possible edges, a consistent graph is obtained, then
// bounded memory for all the edge buffers can be guaranteed".
func Convert(g *dataflow.Graph) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	out := dataflow.New(g.Name() + "+vts")
	for _, a := range g.Actors() {
		src := g.Actor(a)
		out.AddActor(src.Name, src.ExecCycles)
	}
	infos := make([]EdgeInfo, 0, g.NumEdges())
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		info, err := EdgeOf(e)
		if err != nil {
			return nil, err
		}
		info.Original = eid
		prod, cons, bytes := e.Produce.Rate, e.Consume.Rate, e.TokenBytes
		if info.Dynamic {
			prod, cons, bytes = 1, 1, int(info.BMax)
		}
		out.AddEdge(e.Name, e.Src, e.Snk, prod, cons, dataflow.EdgeSpec{Delay: e.Delay, TokenBytes: bytes})
		infos = append(infos, info)
	}
	if _, err := out.RepetitionsVector(); err != nil {
		return nil, fmt.Errorf("vts: converted graph is not consistent: %w", err)
	}
	return &Result{Graph: out, Edges: infos}, nil
}

// EdgeOf is the VTS conversion of one edge: its attributes in the converted
// graph, Original aside (an Edge does not know its ID; Convert fills it in).
func EdgeOf(e *dataflow.Edge) (EdgeInfo, error) {
	info := EdgeInfo{Dynamic: e.Dynamic(), RawTokenBytes: e.TokenBytes, MaxRawTokens: e.Produce.Rate}
	if info.Dynamic {
		// The producer packs up to its bound per firing; the consumer
		// must accept a whole packed token, so the packed size bound is
		// the larger of the two declared rate bounds.
		info.MaxRawTokens = max(e.Produce.Rate, e.Consume.Rate)
		if info.MaxRawTokens <= 0 {
			return EdgeInfo{}, fmt.Errorf("vts: dynamic edge %q has no positive rate bound", e.Name)
		}
	}
	info.BMax = int64(info.MaxRawTokens) * int64(e.TokenBytes)
	return info, nil
}
