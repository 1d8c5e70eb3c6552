// Resynchronization example: paper §4's synchronization-graph optimization
// on the deployments figures 3 and 5 are computed from (3-PE actor D, the
// 2-PE particle filter), run by spi.ResyncSuppression as a -resync run does
// at setup: an acknowledgement feedback edge per interprocessor edge, the
// redundant ones removed at an unchanged period, and those the wire drops.
package main

import (
	"fmt"
	"log"

	"repro/internal/lpc"
	"repro/internal/particle"
	"repro/internal/spi"
)

func main() {
	actorD, err := lpc.ErrorGenSystem(lpc.DefaultDeploy(256, 3))
	check(err)
	filter, err := particle.FilterSystem(particle.DefaultDeploy(300, 2), nil)
	check(err)
	var plan *spi.ResyncPlan
	for _, sys := range []*spi.System{actorD, filter} {
		plan, err = spi.ResyncSuppression(sys.Graph, sys.Mapping)
		check(err)
		fmt.Printf("%s:\n  %s\n", sys.Graph.Name(), plan.Report)
		for _, e := range plan.Report.RemovedFirst {
			fmt.Printf("    removed redundant: %s (delay %d)\n", e.Label, e.Delay)
		}
		fmt.Printf("  wire carries no message on %d of %d feedback edges (%d suppressed UBS acks, %d BBS)\n\n", plan.Silent(), plan.AckFeedback, len(plan.Suppressed), len(plan.BBS))
	}
	fmt.Print("Graphviz (after) for the particle filter:\n", plan.Graph.DOT("fig5-after"))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
