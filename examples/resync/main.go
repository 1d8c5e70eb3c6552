// Resynchronization example: walk through the synchronization-graph
// optimization of paper §4 on the figure-3 and figure-5 systems — derive
// the synchronization graph, remove redundant synchronization edges, insert
// resynchronization edges where profitable, and confirm the steady-state
// period is preserved.
package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/syncgraph"
)

func main() {
	fmt.Println("3-PE actor D (figure 3):")
	g3 := experiments.Fig3Graph(3)
	fmt.Printf("  before: %d sync edges, %d redundant\n", g3.SyncCount(), g3.CountRedundant())
	mcmBefore, _ := g3.MaxCycleMean()
	rep := syncgraph.Resynchronize(g3)
	mcmAfter, _ := g3.MaxCycleMean()
	fmt.Printf("  after:  %d sync edges (period %.1f -> %.1f cycles)\n",
		g3.SyncCount(), mcmBefore, mcmAfter)
	fmt.Printf("  %s\n", rep)
	for _, e := range rep.RemovedFirst {
		fmt.Printf("    removed redundant: %s (delay %d)\n", e.Label, e.Delay)
	}

	fmt.Println("\n2-PE particle filter (figure 5):")
	g5 := experiments.Fig5Graph()
	fmt.Printf("  before: %d sync edges, %d redundant\n", g5.SyncCount(), g5.CountRedundant())
	rep5 := syncgraph.Resynchronize(g5)
	fmt.Printf("  after:  %d sync edges\n", g5.SyncCount())
	fmt.Printf("  %s\n", rep5)

	fmt.Println("\nGraphviz (after) for the particle filter:")
	_, after := experiments.Fig5DOT()
	fmt.Println(after)
}
