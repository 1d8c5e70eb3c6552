package syncgraph_test

import (
	"fmt"

	"repro/internal/syncgraph"
)

// Remove a redundant synchronization: program order plus an existing sync
// edge imply the direct one (the paper's figure-3 pattern).
func ExampleGraph_RemoveRedundant() {
	g := syncgraph.NewGraph()
	sendFrame := g.AddVertex("sendFrame", 0, 5)
	sendCoeffs := g.AddVertex("sendCoeffs", 0, 5)
	pe := g.AddVertex("PE", 1, 100)
	g.AddEdge(sendFrame, sendCoeffs, 0, syncgraph.IntraprocEdge, "program-order")
	g.AddEdge(sendFrame, pe, 0, syncgraph.SyncEdge, "frame-sync")
	g.AddEdge(sendCoeffs, pe, 0, syncgraph.SyncEdge, "coeffs-sync")

	removed := g.RemoveRedundant()
	for _, e := range removed {
		fmt.Println("removed:", e.Label)
	}
	fmt.Println("remaining sync edges:", g.SyncCount())
	// Output:
	// removed: frame-sync
	// remaining sync edges: 1
}

// Resynchronize reports the full optimization: redundancy removal plus any
// profitable insertions, with the throughput check.
func ExampleResynchronize() {
	g := syncgraph.NewGraph()
	a := g.AddVertex("A", 0, 10)
	b := g.AddVertex("B", 1, 20)
	g.AddEdge(a, b, 0, syncgraph.IPCEdge, "data")
	g.AddEdge(a, b, 1, syncgraph.SyncEdge, "stale-ack") // implied by the data edge
	g.AddEdge(b, a, 2, syncgraph.SyncEdge, "credit")

	rep := syncgraph.Resynchronize(g)
	fmt.Println(rep)
	// Output:
	// resync: 3 -> 2 sync edges (removed 1 redundant, added 0, pruned 0); period 15.0 -> 15.0
}
