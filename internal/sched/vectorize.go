package sched

import (
	"fmt"

	"repro/internal/dataflow"
)

// Blocked (vectorized) looped schedules. A blocking factor B turns each
// leaf of a single-appearance schedule from (c A) into (c*B A): every
// actor fires B iterations' worth of invocations back to back, so one
// pass over the loop tree executes B graph iterations and every edge
// moves B iterations of tokens in one burst. The loop counts stay
// block-compatible by construction — the factor folds into the leaves the
// APGAN clustering already chose, reusing its gcd structure instead of
// re-deriving a schedule.

// BlockedSAS returns a copy of the looped schedule with every leaf count
// multiplied by block, the loop form of executing block iterations per
// schedule pass. block <= 1 returns the tree unchanged.
func BlockedSAS(root *LoopNode, block int64) *LoopNode {
	if block <= 1 || root == nil {
		return root
	}
	if root.IsLeaf() {
		return &LoopNode{Count: root.Count * block, Actor: root.Actor}
	}
	body := make([]*LoopNode, len(root.Body))
	for i, c := range root.Body {
		body[i] = BlockedSAS(c, block)
	}
	return &LoopNode{Count: root.Count, Actor: root.Actor, Body: body}
}

// PickBlock chooses the largest blocking factor in [1, maxBlock]
// (default 64 when maxBlock <= 0) whose blocked APGAN schedule is
// admissible, deadlock-free under blocked inter-processor execution
// (dataflow.CheckBlock), and fits the buffer-memory bound in bytes
// (memBound <= 0 means unbounded). It returns the factor and the blocked
// schedule; a graph with no affordable block above 1 yields the plain SAS
// with factor 1.
func PickBlock(g *dataflow.Graph, memBound int64, maxBlock int) (int, *LoopNode, error) {
	sas, err := SingleAppearanceSchedule(g)
	if err != nil {
		return 0, nil, fmt.Errorf("sched: blocking needs a SAS: %w", err)
	}
	if maxBlock <= 0 {
		maxBlock = 64
	}
	for b := maxBlock; b > 1; b-- {
		if g.CheckBlock(b) != nil {
			continue
		}
		blocked := BlockedSAS(sas, int64(b))
		mem, err := SASBufferMemory(g, blocked)
		if err != nil {
			continue // not admissible at this block
		}
		if memBound > 0 && mem > memBound {
			continue
		}
		return b, blocked, nil
	}
	return 1, sas, nil
}
