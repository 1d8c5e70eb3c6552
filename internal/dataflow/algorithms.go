package dataflow

import (
	"container/heap"
	"fmt"
	"math"
)

// TopologicalOrder returns the actors in a topological order of the
// zero-delay precedence structure: edge e imposes src(e) before snk(e)
// unless it carries enough initial delay to satisfy the sink's first-
// iteration demand (delay >= consume). Edges with sufficient delay do not
// constrain the order — they are the feedback edges that make a cyclic SDF
// graph schedulable.
//
// Returns an error if the zero-delay precedence structure is cyclic (the
// graph deadlocks within one iteration at actor granularity).
func (g *Graph) TopologicalOrder() ([]ActorID, error) {
	n := len(g.actors)
	indeg := make([]int, n)
	blocking := func(e *Edge) bool {
		need := e.Consume.Rate
		if e.Consume.Kind == DynamicPort {
			need = 1
		}
		return e.Delay < need
	}
	for i := range g.edges {
		if blocking(&g.edges[i]) {
			indeg[g.edges[i].Snk]++
		}
	}
	queue := make([]ActorID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, ActorID(i))
		}
	}
	order := make([]ActorID, 0, n)
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		order = append(order, a)
		for _, eid := range g.out[a] {
			e := &g.edges[eid]
			if !blocking(e) {
				continue
			}
			indeg[e.Snk]--
			if indeg[e.Snk] == 0 {
				queue = append(queue, e.Snk)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dataflow: zero-delay precedence structure of %q is cyclic", g.name)
	}
	return order, nil
}

// InfiniteDelay is returned by MinDelayPaths for unreachable actors.
const InfiniteDelay = int64(math.MaxInt64)

type delayItem struct {
	actor ActorID
	dist  int64
	index int
}

type delayHeap []*delayItem

func (h delayHeap) Len() int           { return len(h) }
func (h delayHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h delayHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *delayHeap) Push(x interface{}) {
	it := x.(*delayItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *delayHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// MinDelayPaths returns, for every actor, the minimum total edge delay on
// any directed path from src to that actor (Dijkstra; delays are
// non-negative). Unreachable actors get InfiniteDelay. The source itself
// gets 0. This is the Γ quantity in the SPI buffer bound
// B(e) = (Γ(src,snk) + delay(e)) * c(e).
func (g *Graph) MinDelayPaths(src ActorID) []int64 {
	n := len(g.actors)
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = InfiniteDelay
	}
	dist[src] = 0
	h := &delayHeap{}
	heap.Init(h)
	heap.Push(h, &delayItem{actor: src, dist: 0})
	done := make([]bool, n)
	for h.Len() > 0 {
		it := heap.Pop(h).(*delayItem)
		if done[it.actor] {
			continue
		}
		done[it.actor] = true
		for _, eid := range g.out[it.actor] {
			e := &g.edges[eid]
			nd := it.dist + int64(e.Delay)
			if nd < dist[e.Snk] {
				dist[e.Snk] = nd
				heap.Push(h, &delayItem{actor: e.Snk, dist: nd})
			}
		}
	}
	return dist
}
