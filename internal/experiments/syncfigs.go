package experiments

import (
	"fmt"

	"repro/internal/lpc"
	"repro/internal/particle"
	"repro/internal/spi"
	"repro/internal/syncgraph"
)

// fig3System and fig5System are the deployments figures 3 and 5 are
// computed from, as the runtime runs them: the 3-PE actor D of application
// 1 and the 2-PE particle filter of application 2.
func fig3System() (*spi.System, error) { return lpc.ErrorGenSystem(lpc.DefaultDeploy(256, 3)) }

func fig5System() (*spi.System, error) {
	return particle.FilterSystem(particle.DefaultDeploy(300, 2), nil)
}

// resync runs the §4 pass on a deployment exactly as a -resync run does
// at setup (spi.ResyncSuppression).
func resync(system func() (*spi.System, error)) (*spi.System, *spi.ResyncPlan, error) {
	sys, err := system()
	if err != nil {
		return nil, nil, err
	}
	plan, err := spi.ResyncSuppression(sys.Graph, sys.Mapping)
	return sys, plan, err
}

// resyncTable reports the before/after synchronization structure of one
// figure's deployment, costing each interprocessor edge by the protocol
// spi.Build plans for it.
func resyncTable(title string, system func() (*spi.System, error), paperNote string) (*Table, error) {
	sys, plan, err := resync(system)
	if err != nil {
		return nil, err
	}
	dep, err := spi.Build(sys)
	if err != nil {
		return nil, err
	}
	protocols := map[string]syncgraph.Protocol{}
	for _, p := range dep.Plans {
		if p.Protocol == spi.UBS {
			protocols[p.Name] = syncgraph.UBS
		}
	}
	rep := plan.Report
	before, after := syncgraph.Cost(plan.Graph.Unoptimized(), protocols), syncgraph.Cost(plan.Graph, protocols)
	t := &Table{
		Title:  title,
		Header: []string{"metric", "before", "after"},
		Notes:  []string{paperNote, rep.String()},
	}
	t.AddRow("sync_edges", fmt.Sprintf("%d", rep.SyncBefore), fmt.Sprintf("%d", rep.SyncAfter))
	t.AddRow("pure_sync_messages", fmt.Sprintf("%d", before.Messages-before.IPCEdges), fmt.Sprintf("%d", after.Messages-after.IPCEdges))
	t.AddRow("messages_per_iter", fmt.Sprintf("%d", before.Messages), fmt.Sprintf("%d", after.Messages))
	t.AddRow("shared_mem_sync_ops", fmt.Sprintf("%d", before.SharedMemoryOps), fmt.Sprintf("%d", after.SharedMemoryOps))
	t.AddRow("steady_period_cycles", fmt.Sprintf("%.1f", rep.PeriodBefore), fmt.Sprintf("%.1f", rep.PeriodAfter))
	t.Notes = append(t.Notes, fmt.Sprintf("wire verdict: %d of %d feedback edges carry no message (%d suppressed UBS acks, %d BBS)", plan.Silent(), plan.AckFeedback, len(plan.Suppressed), len(plan.BBS)))
	return t, nil
}

// Fig3 regenerates the synchronization-optimization result of figure 3
// (3-PE actor D): redundant acknowledgement edges are removed.
func Fig3() (*Table, error) {
	return resyncTable(
		"Figure 3 — resynchronization, 3-PE actor D (application 1)", fig3System,
		"paper: redundant synchronization edges disappear after resynchronization; throughput preserved",
	)
}

// Fig5 regenerates the synchronization-optimization result of figure 5
// (2-PE particle filter).
func Fig5() (*Table, error) {
	return resyncTable(
		"Figure 5 — resynchronization, 2-PE particle filter (application 2)", fig5System,
		"paper: the resampling split keeps only the necessary synchronizations after optimization",
	)
}

// SyncFigureDOT renders the synchronization graphs of figures 3 and 5,
// before and after resynchronization, in Graphviz format for visual
// comparison with the paper's figures.
func SyncFigureDOT() ([]string, error) {
	var out []string
	for _, f := range []struct {
		name   string
		system func() (*spi.System, error)
	}{{"fig3", fig3System}, {"fig5", fig5System}} {
		_, plan, err := resync(f.system)
		if err != nil {
			return nil, err
		}
		out = append(out, plan.Graph.Unoptimized().DOT(f.name+"-before"), plan.Graph.DOT(f.name+"-after"))
	}
	return out, nil
}
