package syncgraph

import (
	"fmt"
)

// ResyncReport summarizes a resynchronization run.
type ResyncReport struct {
	// SyncBefore / SyncAfter count run-time synchronization edges
	// (IPC + sync) before and after the optimization.
	SyncBefore, SyncAfter int
	// RemovedFirst are the redundant edges removed before any insertion
	// (pure redundancy elimination).
	RemovedFirst []Edge
	// Added are the resynchronization edges inserted.
	Added []Edge
	// RemovedByResync are the edges made redundant by the insertions.
	RemovedByResync []Edge
	// PeriodBefore / PeriodAfter are the maximum cycle means.
	PeriodBefore, PeriodAfter float64
}

// String renders a human-readable summary.
func (r *ResyncReport) String() string {
	return fmt.Sprintf("resync: %d -> %d sync edges (removed %d redundant, added %d, pruned %d); period %.1f -> %.1f",
		r.SyncBefore, r.SyncAfter, len(r.RemovedFirst), len(r.Added), len(r.RemovedByResync),
		r.PeriodBefore, r.PeriodAfter)
}

// Resynchronize optimizes the synchronization structure of g in place:
//
//  1. Remove synchronization edges already redundant (their constraints are
//     implied by other paths).
//  2. Greedily insert new zero-delay synchronization edges between tasks on
//     different processors when doing so makes at least two existing sync
//     edges redundant — "the number of additional synchronizations that
//     become redundant exceeds the number of new synchronizations that are
//     added, and thus the net synchronization cost is reduced" (paper §4.1).
//
// Candidates that would create a zero-delay cycle (deadlock) or degrade the
// steady-state period are rejected: the paper's resynchronization targets
// latency-insensitive reduction, not throughput loss. Rounds stop when no
// candidate gains, after at most |V|²+1 of them.
func Resynchronize(g *Graph) *ResyncReport {
	if g.built == 0 {
		g.built = len(g.edges)
	}
	rep := &ResyncReport{SyncBefore: g.SyncCount()}
	rep.PeriodBefore, _ = g.MaxCycleMean()

	rep.RemovedFirst = g.RemoveRedundant()

	maxRounds := len(g.verts)*len(g.verts) + 1
	for round := 0; round < maxRounds; round++ {
		bestGain := 0
		bestU, bestV := VertexID(-1), VertexID(-1)
		var bestRemoved []Edge
		base := g.SyncCount()
		basePeriod, baseLive := g.MaxCycleMean()
		if !baseLive {
			break // should not happen on a live schedule; stop rather than loop
		}
		for u := 0; u < len(g.verts); u++ {
			for v := 0; v < len(g.verts); v++ {
				if u == v || g.verts[u].Proc == g.verts[v].Proc {
					continue
				}
				// Trial insertion on a clone.
				trial := g.Clone()
				trial.AddEdge(VertexID(u), VertexID(v), 0, SyncEdge, "resync")
				if trial.HasZeroDelayCycle() {
					continue
				}
				removed := trial.RemoveRedundant()
				gain := base - trial.SyncCount()
				if gain <= bestGain {
					continue
				}
				if p, live := trial.MaxCycleMean(); !live || p > basePeriod+1e-6 {
					continue
				}
				bestGain = gain
				bestU, bestV = VertexID(u), VertexID(v)
				bestRemoved = removed
			}
		}
		if bestGain <= 0 {
			break
		}
		g.AddEdge(bestU, bestV, 0, SyncEdge, "resync")
		g.RemoveRedundant()
		rep.Added = append(rep.Added, Edge{Src: bestU, Snk: bestV, Kind: SyncEdge, Label: "resync"})
		rep.RemovedByResync = append(rep.RemovedByResync, bestRemoved...)
	}

	rep.SyncAfter = g.SyncCount()
	rep.PeriodAfter, _ = g.MaxCycleMean()
	return rep
}
