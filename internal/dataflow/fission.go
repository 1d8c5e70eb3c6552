package dataflow

import (
	"fmt"
)

// Data-parallel actor fission. The paper's LPC application hand-
// parallelizes actor D (error generation) across n PEs behind an I/O
// interface: scatter the frame sections, compute in parallel, gather the
// error values. Fission automates that rewrite for any stateless
// data-parallel actor: the actor's node becomes a scatter stage, k fresh
// replica actors each carry 1/k of the work, and a gather stage
// reassembles the replica chunks in order, so downstream actors see
// byte-identical payloads. The replica count k and the vectorization
// block factor B are chosen jointly under a BlockMemoryBytes-style
// memory bound (per Lin et al., "Memory-constrained Vectorization and
// Scheduling of Dataflow Graphs"): a larger k splits the compute finer
// but adds 2k scatter/gather messages per iteration, which only pay off
// when a large enough block amortizes them — and both k and B cost
// buffer memory.
//
// The rewrite is ID-stable: every actor and edge of the source graph
// keeps its ID and name in the rewritten graph (the fissioned actor's
// node is reused as the scatter stage; its output edges are re-rooted at
// the gather stage). Kernels written against the source graph therefore
// run unchanged on every non-fissioned actor, and spi.FissionKernels
// wraps the fissioned actor's kernel into the scatter/replica/gather
// stages.

// SplitCounts partitions n tokens over k replicas: replicas 0..k-2 take
// floor(n/k) tokens each and the last replica takes the remainder, so
// reassembling the chunks in replica order is token-exact for every n
// and k (including n < k, where the last replica takes everything).
func SplitCounts(n, k int) []int {
	if k <= 0 {
		return nil
	}
	counts := make([]int, k)
	if n <= 0 {
		return counts
	}
	base := n / k
	for i := 0; i < k-1; i++ {
		counts[i] = base
	}
	counts[k-1] = n - (k-1)*base
	return counts
}

// ChunkBound returns an upper bound on the tokens replica i can receive
// when any runtime count n <= total is split by SplitCounts over k
// replicas. Replicas before the last see at most floor(total/k); the
// last replica's worst case over all n <= total is
// max(total/k + total%k, total/k + k - 2) (the remainder can be as
// large as k-1 when the quotient drops by one). The bound is clamped to
// [1, total] so it is always a legal SDF rate.
func ChunkBound(total, k, i int) int {
	if total <= 0 || k <= 0 {
		return 1
	}
	if k == 1 {
		return total
	}
	var b int
	if i < k-1 {
		b = total / k
	} else {
		b = total/k + total%k
		if alt := total/k + k - 2; total/k >= 1 && alt > b {
			b = alt
		}
	}
	if b < 1 {
		b = 1
	}
	if b > total {
		b = total
	}
	return b
}

// FissionOptions configures a fission rewrite. Every input edge of the
// fissioned actor is broadcast — each replica receives the full payload, as
// a data-parallel kernel may need shared state (the LPC coefficients, the
// frame history overlap) alongside its chunk — and every output edge is
// split into the replicas' SplitCounts chunks.
type FissionOptions struct {
	// K fixes the replica count. Zero means choose k (and the block
	// factor) jointly under MemBound via the cost model below.
	K int
	// MemBound caps the modeled buffer memory (BlockMemoryBytes) of the
	// rewritten graph at the chosen block factor. <= 0 means unbounded.
	MemBound int64
}

// The joint chooser's search bounds and cost model: at most fissionMaxK
// replicas and blocks of at most fissionMaxBlock iterations, with
// fissionMsgCycles the modeled per-message overhead in processor cycles
// (header, credit, scheduling).
const (
	fissionMaxK      = 16
	fissionMaxBlock  = 64
	fissionMsgCycles = 400
)

// FissionPlan is the result of a fission rewrite.
type FissionPlan struct {
	// Graph is the rewritten graph. Actor and edge IDs of the source
	// graph are preserved; the new replica actors, the gather actor, and
	// the scatter/gather edges are appended after them.
	Graph *Graph
	// Source is the graph that was rewritten (not modified).
	Source *Graph
	// Actor is the fissioned actor (same ID in Source and Graph; in
	// Graph its node is the scatter stage).
	Actor ActorID
	// K is the replica count; Block the jointly chosen block factor.
	K, Block int
	// MemoryBytes is BlockMemoryBytes of the rewritten graph at Block;
	// MemBound echoes the bound it was chosen under (0 = unbounded).
	MemoryBytes, MemBound int64
	// Scatter, Replicas, Gather identify the new stages in Graph.
	// Scatter == Actor (the node is reused).
	Scatter  ActorID
	Replicas []ActorID
	Gather   ActorID
	// ScatterEdges maps each source input edge to its k scatter->replica
	// edges; GatherEdges maps each source output edge to its k
	// replica->gather edges (both in replica order).
	ScatterEdges map[EdgeID][]EdgeID
	GatherEdges  map[EdgeID][]EdgeID
	// InTokens / OutTokens record the per-iteration token bound of each
	// source input/output edge (an output's is the total SplitCounts
	// chunks).
	InTokens  map[EdgeID]int64
	OutTokens map[EdgeID]int64
}

// Fissionable reports whether the actor can be fissioned: it must have
// at least one input and one output edge (sources and sinks have no
// chunkable stream) and no self-loop (a self-loop is actor state, and
// fission requires statelessness).
func Fissionable(g *Graph, a ActorID) error {
	if int(a) < 0 || int(a) >= g.NumActors() {
		return fmt.Errorf("dataflow: fission of unknown actor %d", a)
	}
	if len(g.In(a)) == 0 || len(g.Out(a)) == 0 {
		return fmt.Errorf("dataflow: actor %q is not fissionable: fission needs at least one input and one output edge", g.Actor(a).Name)
	}
	for _, eid := range g.Out(a) {
		if g.Edge(eid).Snk == a {
			return fmt.Errorf("dataflow: actor %q is not fissionable: self-loop %q carries state across firings", g.Actor(a).Name, g.Edge(eid).Name)
		}
	}
	return nil
}

// HeaviestFissionable returns the fissionable actor with the largest
// ExecCycles — the default target when the caller names none.
func HeaviestFissionable(g *Graph) (ActorID, error) {
	best, bestCost := NoActor, int64(-1)
	for _, a := range g.Actors() {
		if Fissionable(g, a) != nil {
			continue
		}
		c := g.Actor(a).ExecCycles
		if c <= 0 {
			c = 1
		}
		if c > bestCost {
			best, bestCost = a, c
		}
	}
	if best == NoActor {
		return NoActor, fmt.Errorf("dataflow: graph %q has no fissionable actor", g.Name())
	}
	return best, nil
}

// Fission rewrites actor a of g into k replicas behind scatter/gather
// stages and returns the plan. When opts.K is zero, k and the block
// factor are chosen jointly under opts.MemBound: the chooser minimizes
// the modeled per-iteration cost
//
//	cost(k, B) = ExecCycles(a)/k + fissionMsgCycles * k * (ins+outs) / B
//
// over k in [1, fissionMaxK] with B the largest deadlock-free block whose
// BlockMemoryBytes fits the bound — so a tight bound backs k off to
// leave room for the block that amortizes the scatter/gather traffic.
func Fission(g *Graph, a ActorID, opts FissionOptions) (*FissionPlan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := Fissionable(g, a); err != nil {
		return nil, err
	}
	build := func(k int) (*FissionPlan, error) {
		plan, err := rewrite(g, a, k)
		if err != nil {
			return nil, err
		}
		vp, err := Vectorize(plan.Graph, opts.MemBound, fissionMaxBlock)
		if err != nil {
			return nil, err
		}
		plan.Block = vp.Block
		plan.MemoryBytes = vp.MemoryBytes
		plan.MemBound = opts.MemBound
		if opts.MemBound > 0 && plan.MemoryBytes > opts.MemBound {
			return nil, fmt.Errorf("dataflow: fission of %q into %d replicas needs %d bytes of buffer memory, bound is %d",
				g.Actor(a).Name, k, plan.MemoryBytes, opts.MemBound)
		}
		return plan, nil
	}

	if opts.K > 0 {
		return build(opts.K)
	}

	// Joint (k, B) selection: score every feasible k by the modeled
	// per-iteration cost and keep the cheapest (ties go to the smaller
	// k — fewer replicas, less plumbing).
	work := g.Actor(a).ExecCycles
	if work <= 0 {
		work = 1
	}
	edges := int64(len(g.In(a)) + len(g.Out(a)))
	var best *FissionPlan
	var bestCost float64
	for k := 1; k <= fissionMaxK; k++ {
		plan, err := build(k)
		if err != nil {
			// Over the memory bound (or otherwise infeasible): larger k
			// only costs more memory, so stop searching.
			break
		}
		cost := float64(work)/float64(k) +
			float64(fissionMsgCycles)*float64(int64(k)*edges)/float64(plan.Block)
		if best == nil || cost < bestCost {
			best, bestCost = plan, cost
		}
	}
	if best == nil {
		return nil, fmt.Errorf("dataflow: no feasible fission of %q under memory bound %d", g.Actor(a).Name, opts.MemBound)
	}
	return best, nil
}

// rewrite builds the fissioned graph for a fixed k. The source actors
// and edges are re-added in insertion order so their IDs survive; actor
// a's node becomes the scatter stage, its output edges are re-rooted at
// the gather stage, and the scatter/gather plumbing is appended.
func rewrite(g *Graph, a ActorID, k int) (*FissionPlan, error) {
	if k <= 0 {
		return nil, fmt.Errorf("dataflow: fission into %d replicas", k)
	}
	q, err := g.RepetitionsVector()
	if err != nil {
		return nil, err
	}
	name := g.Actor(a).Name
	f := New(g.Name())

	// The scatter and gather stages move pointers, not MACs: model them
	// at a small fixed cost so schedulers do not mistake them for the
	// compute they replaced.
	const stageCycles = 50
	replicaCycles := g.Actor(a).ExecCycles / int64(k)
	if replicaCycles < 1 {
		replicaCycles = 1
	}

	// Actors, in source order; actor a keeps its slot (and name) as the
	// scatter stage.
	for _, id := range g.Actors() {
		act := g.Actor(id)
		if id == a {
			f.AddActor(act.Name, stageCycles)
			continue
		}
		f.AddActor(act.Name, act.ExecCycles)
	}
	replicas := make([]ActorID, k)
	for i := 0; i < k; i++ {
		replicas[i] = f.AddActor(fmt.Sprintf("%s#%d", name, i), replicaCycles)
	}
	gather := f.AddActor(name+".gather", stageCycles)

	// Edges, in source order: edges out of a re-root at the gather
	// stage, everything else copies verbatim (IDs line up by
	// construction).
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		src := e.Src
		if src == a {
			src = gather
		}
		spec := EdgeSpec{
			Delay:          e.Delay,
			TokenBytes:     e.TokenBytes,
			ProduceDynamic: e.Produce.Kind == DynamicPort,
			ConsumeDynamic: e.Consume.Kind == DynamicPort,
		}
		f.AddEdge(e.Name, src, e.Snk, e.Produce.Rate, e.Consume.Rate, spec)
	}

	plan := &FissionPlan{
		Graph:        f,
		Source:       g,
		Actor:        a,
		K:            k,
		Scatter:      a,
		Replicas:     replicas,
		Gather:       gather,
		ScatterEdges: map[EdgeID][]EdgeID{},
		GatherEdges:  map[EdgeID][]EdgeID{},
		InTokens:     map[EdgeID]int64{},
		OutTokens:    map[EdgeID]int64{},
	}

	// edgeTokens bounds the tokens edge eid moves per graph iteration.
	// IterationTokens counts a dynamic port as one packed token per
	// firing; for sizing the plumbing we need the declared upper bound
	// (the Rate of a DynamicPort is the paper's "x has an upper bound of
	// 10"), so take the larger of the two endpoints' declared totals.
	edgeTokens := func(eid EdgeID) int64 {
		e := g.Edge(eid)
		total := q[e.Src] * int64(e.Produce.Rate)
		if c := q[e.Snk] * int64(e.Consume.Rate); c > total {
			total = c
		}
		if total < 1 {
			total = 1
		}
		return total
	}

	// Scatter plumbing: one dynamic edge per (input edge, replica), each
	// carrying up to the full per-iteration payload (every input is
	// broadcast). Payloads vary at run time (dynamic sources), so the
	// plumbing is always dynamic-rate with the bound as the declared
	// maximum — exactly the paper's VTS discipline.
	for _, eid := range g.In(a) {
		e := g.Edge(eid)
		total := edgeTokens(eid)
		plan.InTokens[eid] = total
		ids := make([]EdgeID, k)
		for i := 0; i < k; i++ {
			ids[i] = f.AddEdge(fmt.Sprintf("%s>%s#%d", e.Name, name, i), a, replicas[i], int(total), int(total),
				EdgeSpec{TokenBytes: e.TokenBytes, ProduceDynamic: true, ConsumeDynamic: true})
		}
		plan.ScatterEdges[eid] = ids
	}

	// Gather plumbing: one dynamic edge per (output edge, replica),
	// carrying replica i's chunk of the output stream (last replica
	// takes the uneven tail, plus one token of headroom for a trailing
	// partial token of a dynamic byte stream).
	for _, eid := range g.Out(a) {
		e := g.Edge(eid)
		total := edgeTokens(eid)
		plan.OutTokens[eid] = total
		ids := make([]EdgeID, k)
		for i := 0; i < k; i++ {
			bound := ChunkBound(int(total), k, i)
			if i == k-1 && bound < int(total) {
				bound++ // partial-token tail headroom
			}
			ids[i] = f.AddEdge(fmt.Sprintf("%s#%d>%s", name, i, e.Name), replicas[i], gather, bound, bound,
				EdgeSpec{TokenBytes: e.TokenBytes, ProduceDynamic: true, ConsumeDynamic: true})
		}
		plan.GatherEdges[eid] = ids
	}

	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("dataflow: fission of %q produced an invalid graph: %w", name, err)
	}
	if _, err := f.RepetitionsVector(); err != nil {
		return nil, fmt.Errorf("dataflow: fission of %q produced an inconsistent graph: %w", name, err)
	}
	return plan, nil
}

// String renders the plan for inspection (spigraph -fission).
func (p *FissionPlan) String() string {
	s := fmt.Sprintf("fission %q into %d replicas (block %d, memory %d bytes", p.Source.Actor(p.Actor).Name, p.K, p.Block, p.MemoryBytes)
	if p.MemBound > 0 {
		s += fmt.Sprintf(" of %d bound", p.MemBound)
	}
	return s + ")"
}
