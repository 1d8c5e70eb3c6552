package syncgraph

import (
	"container/heap"
	"math"
)

// infDelay marks unreachable vertices in min-delay path computations.
const infDelay = int64(math.MaxInt64)

// minDelayFrom computes single-source minimum-delay paths over live edges,
// optionally excluding one edge index (pass -1 to include all). Dijkstra is
// applicable because delays are non-negative.
func (g *Graph) minDelayFrom(src VertexID, excludeEdge int) []int64 {
	dist := make([]int64, len(g.verts))
	for i := range dist {
		dist[i] = infDelay
	}
	dist[src] = 0
	h := &vertexHeap{{v: src, d: 0}}
	done := make([]bool, len(g.verts))
	for h.Len() > 0 {
		it := heap.Pop(h).(vertexDist)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		for _, ei := range g.out[it.v] {
			if ei == excludeEdge {
				continue
			}
			e := &g.edges[ei]
			if e.Kind == removedKind {
				continue
			}
			nd := it.d + e.Delay
			if nd < dist[e.Snk] {
				dist[e.Snk] = nd
				heap.Push(h, vertexDist{v: e.Snk, d: nd})
			}
		}
	}
	return dist
}

type vertexDist struct {
	v VertexID
	d int64
}

type vertexHeap []vertexDist

func (h vertexHeap) Len() int            { return len(h) }
func (h vertexHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h vertexHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *vertexHeap) Push(x interface{}) { *h = append(*h, x.(vertexDist)) }
func (h *vertexHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// IsRedundant reports whether the live edge at index ei is redundant: its
// synchronization constraint start(snk,k) >= end(src, k-δ) is implied by
// another src->snk path whose total delay is at most δ. (A path with delay
// d enforces start(snk,k) >= end(src, k-d); smaller or equal delay is a
// stronger or equal constraint.)
func (g *Graph) IsRedundant(ei int) bool {
	e := &g.edges[ei]
	if e.Kind == removedKind {
		return false
	}
	dist := g.minDelayFrom(e.Src, ei)
	return dist[e.Snk] != infDelay && dist[e.Snk] <= e.Delay
}

// RemoveRedundant removes redundant synchronization edges until none
// remain, and returns the removed edges. Only SyncEdge edges are eligible:
// IPC edges still move data even when their synchronization function is
// subsumed, and intraprocessor/loopback edges are free program order.
//
// Edges are examined in a deterministic order (descending delay, then
// insertion order): removing the loosest constraints first preserves the
// tighter ones that imply them, maximizing removals in the common patterns
// (parallel messages between the same task pair, acknowledgement fans).
// After each removal, subsequent redundancy checks run against the reduced
// graph, so mutual redundancy can never remove both of a pair.
func (g *Graph) RemoveRedundant() []Edge {
	var removed []Edge
	for {
		candidates := make([]int, 0)
		for i := range g.edges {
			if g.edges[i].Kind == SyncEdge {
				candidates = append(candidates, i)
			}
		}
		// Descending delay, ties by index, for determinism.
		for i := 1; i < len(candidates); i++ {
			for j := i; j > 0 && g.edges[candidates[j]].Delay > g.edges[candidates[j-1]].Delay; j-- {
				candidates[j], candidates[j-1] = candidates[j-1], candidates[j]
			}
		}
		progress := false
		for _, ei := range candidates {
			if g.edges[ei].Kind != SyncEdge {
				continue
			}
			if g.IsRedundant(ei) {
				removed = append(removed, g.edges[ei])
				g.edges[ei].Kind = removedKind
				progress = true
			}
		}
		if !progress {
			return removed
		}
	}
}
