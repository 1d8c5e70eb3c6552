package dataflow

import (
	"fmt"
	"strings"
)

// Vectorization (blocked execution) analysis. Firing a consistent SDF
// graph's iteration B times back to back — q[a]*B firings per actor, B
// iterations' tokens per transfer — amortizes per-message header, credit,
// and scheduling costs at the price of B-times-larger buffers (the eq. 2
// bound scales linearly with the block). Blocking is legal only when every
// dependency cycle is decoupled by enough initial delay: inside one block
// an actor consumes all B iterations' inputs before any of its outputs
// become visible, so a cycle whose delay does not cover a whole block
// deadlocks. The analyses here compute, for a given graph, which blocking
// factors are feasible and how much buffer memory each one costs, so a
// caller can pick the largest block under a memory bound.

// DelayIterations converts an edge's initial-token delay into whole graph
// iterations: how many iterations the consumer can run ahead of the
// producer on this edge. Zero when the edge moves no tokens.
func (g *Graph) DelayIterations(q Repetitions, e EdgeID) int {
	if t := g.IterationTokens(q, e); t > 0 {
		return g.Edge(e).Delay / int(t)
	}
	return 0
}

// BlockDecouples reports whether edge e decouples consecutive blocks of
// `block` iterations: its delay covers at least one whole block and a whole
// number of them, so the consumer's block k reads only producer blocks
// strictly before k. Cycles survive blocked execution only through
// decoupling edges.
func (g *Graph) BlockDecouples(q Repetitions, e EdgeID, block int) bool {
	if block <= 1 {
		return true
	}
	d := g.DelayIterations(q, e)
	return d >= block && d%block == 0
}

// CheckBlock verifies that blocked execution with the given blocking factor
// is deadlock-free: after removing every decoupling edge (BlockDecouples),
// the remaining dependency graph must be acyclic. A block of 0 or 1 is
// scalar execution and always legal.
func (g *Graph) CheckBlock(block int) error { return g.CheckBlockSchedule(block, nil) }

// CheckBlockSchedule is CheckBlock for a mapped execution, where orders
// lists per processor the actors it fires in sequence: within one block an
// actor consumes all its inputs before any output becomes visible, and a
// processor fires its actors' blocks in schedule order, so each order chain
// joins the dependency graph — sequentialization can create cycles the
// dataflow graph alone does not have.
func (g *Graph) CheckBlockSchedule(block int, orders [][]ActorID) error {
	if block <= 1 {
		return nil
	}
	q, err := g.RepetitionsVector()
	if err != nil {
		return err
	}
	n := g.NumActors()
	indeg := make([]int, n)
	succ := make([][]ActorID, n)
	for _, eid := range g.Edges() {
		if g.BlockDecouples(q, eid, block) {
			continue
		}
		e := g.Edge(eid)
		succ[e.Src] = append(succ[e.Src], e.Snk)
		indeg[e.Snk]++
	}
	for _, order := range orders {
		for i := 1; i < len(order); i++ {
			succ[order[i-1]] = append(succ[order[i-1]], order[i])
			indeg[order[i]]++
		}
	}
	queue := make([]ActorID, 0, n)
	for a := 0; a < n; a++ {
		if indeg[a] == 0 {
			queue = append(queue, ActorID(a))
		}
	}
	done := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		done++
		for _, w := range succ[v] {
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if done == n {
		return nil
	}
	var stuck []string
	for a := 0; a < n; a++ {
		if indeg[a] > 0 {
			stuck = append(stuck, g.actors[a].Name)
		}
	}
	through := "cycle"
	if len(orders) > 0 {
		through = "dependency cycle (dataflow edges plus processor schedule order)"
	}
	return fmt.Errorf("dataflow: block %d deadlocks: %s through {%s} lacks a delay covering a whole block (need delay >= %d iterations, in whole multiples)",
		block, through, strings.Join(stuck, ", "), block)
}

// BlockMemoryBytes models the buffer memory of a blocked execution: every
// edge holds up to one block of tokens in flight (B iterations' worth) on
// top of its initial delay, so the eq. 2 IPC bound scales by the block.
// Token sizes of zero count as one byte, matching the other size analyses.
func (g *Graph) BlockMemoryBytes(q Repetitions, block int) int64 {
	if block < 1 {
		block = 1
	}
	var total int64
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		tb := int64(e.TokenBytes)
		if tb <= 0 {
			tb = 1
		}
		total += (int64(block)*g.IterationTokens(q, eid) + int64(e.Delay)) * tb
	}
	return total
}

// VectorizePlan is the result of blocking-factor selection.
type VectorizePlan struct {
	// Block is the chosen graph blocking factor B; 1 means scalar
	// execution (no feasible or affordable block above 1).
	Block int
	// Factors is the per-actor firing count of one blocked iteration:
	// Block * q[a].
	Factors Repetitions
	// Q is the repetitions vector the factors were derived from.
	Q Repetitions
	// MemoryBytes is the modeled buffer memory of the chosen block
	// (BlockMemoryBytes).
	MemoryBytes int64
	// BlockedEdges lists the edges whose delay aligns with the block
	// (delay a whole multiple of Block iterations, including zero) and so
	// carry packed B-iteration slabs; the rest stay token-granular.
	BlockedEdges []EdgeID
}

// Vectorize picks the largest blocking factor B in [1, maxBlock] that is
// deadlock-free (CheckBlock) and whose modeled buffer memory stays within
// memBound bytes (<= 0 means unbounded). maxBlock <= 0 defaults to 64. The
// returned plan has Block == 1 when no larger block qualifies.
func Vectorize(g *Graph, memBound int64, maxBlock int) (*VectorizePlan, error) {
	q, err := g.RepetitionsVector()
	if err != nil {
		return nil, err
	}
	if maxBlock <= 0 {
		maxBlock = 64
	}
	best := 1
	for b := maxBlock; b > 1; b-- {
		if memBound > 0 && g.BlockMemoryBytes(q, b) > memBound {
			continue
		}
		if g.CheckBlock(b) == nil {
			best = b
			break
		}
	}
	plan := &VectorizePlan{
		Block:       best,
		Q:           q,
		Factors:     make(Repetitions, len(q)),
		MemoryBytes: g.BlockMemoryBytes(q, best),
	}
	for a, r := range q {
		plan.Factors[a] = int64(best) * r
	}
	for _, eid := range g.Edges() {
		if best > 1 && g.DelayIterations(q, eid)%best == 0 {
			plan.BlockedEdges = append(plan.BlockedEdges, eid)
		}
	}
	return plan, nil
}
