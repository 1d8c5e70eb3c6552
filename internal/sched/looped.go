package sched

import (
	"fmt"
	"strings"

	"repro/internal/dataflow"
)

// Looped single-appearance schedule (SAS) synthesis. A SAS is a nested-loop
// schedule in which each actor appears exactly once — the minimal-code-size
// organization for software synthesis from SDF graphs. The clustering
// heuristic is APGAN (acyclic pairwise grouping of adjacent nodes): merge
// the adjacent cluster pair with the largest repetition-count gcd, subject
// to the clustered graph remaining acyclic; large gcds maximize loop reuse
// and reduce buffering between the clusters.

// LoopNode is one node of a looped-schedule tree: a leaf fires an actor, an
// internal node repeats its body in sequence.
type LoopNode struct {
	// Count is the iteration count of this loop.
	Count int64
	// Actor is the fired actor for leaves; NoActor for internal nodes.
	Actor dataflow.ActorID
	// Body is the ordered sub-schedule of an internal node.
	Body []*LoopNode
}

// IsLeaf reports whether the node fires a single actor.
func (n *LoopNode) IsLeaf() bool { return n.Actor != dataflow.NoActor }

// Notation renders the schedule in the standard looped notation, e.g.
// "(2 (3 A) B)" — repeat twice: fire A three times, then B once.
func (n *LoopNode) Notation(g *dataflow.Graph) string {
	var b strings.Builder
	n.render(g, &b)
	return b.String()
}

func (n *LoopNode) render(g *dataflow.Graph, b *strings.Builder) {
	if n.IsLeaf() {
		if n.Count != 1 {
			fmt.Fprintf(b, "(%d %s)", n.Count, g.Actor(n.Actor).Name)
		} else {
			b.WriteString(g.Actor(n.Actor).Name)
		}
		return
	}
	if n.Count != 1 {
		fmt.Fprintf(b, "(%d ", n.Count)
	}
	for i, c := range n.Body {
		if i > 0 {
			b.WriteString(" ")
		}
		c.render(g, b)
	}
	if n.Count != 1 {
		b.WriteString(")")
	}
}

// Flatten expands the loop tree into a flat firing sequence.
func (n *LoopNode) Flatten() dataflow.FlatSchedule {
	var out dataflow.FlatSchedule
	n.flatten(&out)
	return out
}

func (n *LoopNode) flatten(out *dataflow.FlatSchedule) {
	for i := int64(0); i < n.Count; i++ {
		if n.IsLeaf() {
			*out = append(*out, n.Actor)
		} else {
			for _, c := range n.Body {
				c.flatten(out)
			}
		}
	}
}

// Appearances counts actor appearances in the tree; a SAS has exactly one
// per actor.
func (n *LoopNode) Appearances() int {
	if n.IsLeaf() {
		return 1
	}
	total := 0
	for _, c := range n.Body {
		total += c.Appearances()
	}
	return total
}

// cluster is a node of the APGAN clustering graph.
type cluster struct {
	reps int64
	node *LoopNode
}

// SingleAppearanceSchedule builds a looped single-appearance schedule for a
// consistent SDF graph whose zero-delay precedence structure is acyclic
// (delay-broken cycles are fine: the delays must cover one full iteration's
// consumption, which the flat admissibility check verifies at the end).
//
// The returned tree fires each actor exactly once; flattening it yields a
// valid PASS.
func SingleAppearanceSchedule(g *dataflow.Graph) (*LoopNode, error) {
	q, err := g.RepetitionsVector()
	if err != nil {
		return nil, err
	}
	n := g.NumActors()
	if n == 0 {
		return nil, fmt.Errorf("sched: empty graph")
	}

	// Clustered-graph state: parent-union over actors, per-cluster loop
	// trees, and a dynamic adjacency/reachability view computed on demand.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	clusters := make(map[int]*cluster, n)
	for i := 0; i < n; i++ {
		clusters[i] = &cluster{
			reps: q[i],
			node: &LoopNode{Count: 1, Actor: dataflow.ActorID(i)},
		}
	}

	// edgesBetween reports whether any dataflow edge connects the two
	// clusters, and the direction(s).
	type pair struct{ a, b int }
	clusterEdges := func() map[pair]bool {
		out := make(map[pair]bool)
		for _, eid := range g.Edges() {
			e := g.Edge(eid)
			ca, cb := find(int(e.Src)), find(int(e.Snk))
			if ca != cb {
				out[pair{ca, cb}] = true
			}
		}
		return out
	}
	// reach reports whether dst is reachable from src in the cluster graph
	// excluding direct src->dst edges (used for the acyclicity check:
	// merging src and dst is illegal if another path connects them, since
	// the merged node would close a cycle with that path).
	reach := func(edges map[pair]bool, src, dst int) bool {
		visited := map[int]bool{src: true}
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for e := range edges {
				if e.a != v || (v == src && e.b == dst) {
					continue
				}
				if e.b == dst {
					return true
				}
				if !visited[e.b] {
					visited[e.b] = true
					queue = append(queue, e.b)
				}
			}
		}
		return false
	}

	for len(clusters) > 1 {
		edges := clusterEdges()
		if len(edges) == 0 {
			// Disconnected components: merge arbitrarily (sequence them).
			var ids []int
			for id := range clusters {
				ids = append(ids, id)
			}
			// deterministic order
			for i := 0; i < len(ids); i++ {
				for j := i + 1; j < len(ids); j++ {
					if ids[j] < ids[i] {
						ids[i], ids[j] = ids[j], ids[i]
					}
				}
			}
			a, b := ids[0], ids[1]
			mergeClusters(clusters, parent, find, a, b, a)
			continue
		}
		// Pick the mergeable adjacent pair with the largest gcd of reps.
		bestG := int64(-1)
		var bestA, bestB int
		for e := range edges {
			if edges[pair{e.b, e.a}] && e.b < e.a {
				continue // consider each unordered pair once, from the lower id
			}
			if reach(edges, e.a, e.b) || reach(edges, e.b, e.a) {
				continue // would close a cycle
			}
			gcd := gcd64s(clusters[e.a].reps, clusters[e.b].reps)
			if gcd > bestG || (gcd == bestG && (e.a < bestA || (e.a == bestA && e.b < bestB))) {
				bestG, bestA, bestB = gcd, e.a, e.b
			}
		}
		if bestG < 0 {
			return nil, fmt.Errorf("sched: clustering stuck (tightly interdependent cycles); no SAS without delay analysis")
		}
		// Order the merged body by data direction: producer first.
		first, second := bestA, bestB
		if edges[pair{bestB, bestA}] && !edges[pair{bestA, bestB}] {
			first, second = bestB, bestA
		}
		mergeClusters(clusters, parent, find, first, second, bestA)
	}
	var root *LoopNode
	for _, c := range clusters {
		root = c.node
	}
	// Sanity: the flattened schedule must be admissible and return the
	// graph to its initial state.
	ok, err := g.ScheduleReturnsToInitialState(root.Flatten())
	if err != nil {
		return nil, fmt.Errorf("sched: SAS not admissible: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("sched: SAS does not return the graph to its initial state")
	}
	return root, nil
}

// mergeClusters merges cluster `second` into a new cluster rooted at
// `keep`, with body order (first, second).
func mergeClusters(clusters map[int]*cluster, parent []int, find func(int) int, first, second, keep int) {
	a, b := clusters[first], clusters[second]
	g := gcd64s(a.reps, b.reps)
	na := cloneWithCount(a.node, a.reps/g)
	nb := cloneWithCount(b.node, b.reps/g)
	merged := &cluster{
		reps: g,
		node: &LoopNode{Count: 1, Actor: dataflow.NoActor, Body: []*LoopNode{na, nb}},
	}
	other := first
	if keep == first {
		other = second
	}
	parent[other] = keep
	delete(clusters, other)
	clusters[keep] = merged
}

// cloneWithCount scales a loop tree by an outer factor, folding the factor
// into the node when possible.
func cloneWithCount(n *LoopNode, factor int64) *LoopNode {
	if factor == 1 {
		return n
	}
	return &LoopNode{Count: factor * n.Count, Actor: n.Actor, Body: n.Body}
}

func gcd64s(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

// SASBufferMemory returns the total buffer bytes of a looped schedule: the
// per-edge maximum token occupancy of the flattened schedule times the
// token size.
func SASBufferMemory(g *dataflow.Graph, root *LoopNode) (int64, error) {
	bounds, err := g.BufferBounds(root.Flatten())
	if err != nil {
		return 0, err
	}
	var total int64
	for eid, tokens := range bounds {
		total += tokens * int64(g.Edge(eid).TokenBytes)
	}
	return total, nil
}
