package spi

import (
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/syncgraph"
)

// fanoutSystem: an I/O-interface pair scattering to workers and gathering,
// the figure-3 shape where every acknowledgement is provably redundant.
func fanoutSystem(t *testing.T, workers int) *System {
	t.Helper()
	g := dataflow.New("fan")
	src := g.AddActor("src", 100)
	snk := g.AddActor("snk", 10)
	m := &sched.Mapping{
		NumProcs: workers + 1,
		Proc:     make([]sched.Processor, 0, workers+2),
		Order:    make([][]dataflow.ActorID, workers+1),
	}
	m.Proc = append(m.Proc, 0, 0) // src, snk on proc 0
	m.Order[0] = []dataflow.ActorID{src, snk}
	for i := 0; i < workers; i++ {
		w := g.AddActor("w"+string(rune('0'+i)), 500)
		g.AddEdge("in"+string(rune('0'+i)), src, w, 16, 16,
			dataflow.EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 1})
		g.AddEdge("out"+string(rune('0'+i)), w, snk, 16, 16,
			dataflow.EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 1})
		m.Proc = append(m.Proc, sched.Processor(i+1))
		m.Order[i+1] = []dataflow.ActorID{w}
	}
	return &System{Graph: g, Mapping: m}
}

// TestBuildSuppressAcksSendsNoAcks: when the resynchronization verdict
// proves every acknowledgement redundant, the deployment built with
// SuppressAcks sends none, and its total traffic drops.
func TestBuildSuppressAcksSendsNoAcks(t *testing.T) {
	sys := fanoutSystem(t, 3)
	plan, err := ResyncSuppression(sys.Graph, sys.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if plan.AckFeedback == 0 || plan.AckSurviving != 0 {
		t.Fatalf("acks not all redundant: feedback=%d surviving=%d", plan.AckFeedback, plan.AckSurviving)
	}
	if rep := plan.Report; rep.SyncAfter >= rep.SyncBefore {
		t.Errorf("no reduction: %s", rep)
	}
	sys.SuppressAcks = true
	// The optimized deployment must generate zero acknowledgement traffic.
	dep, err := Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dep.Sim.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages[platform.AckMsg] != 0 {
		t.Errorf("optimized system still sent %d acks", st.Messages[platform.AckMsg])
	}
	// Against the unoptimized baseline, total traffic drops.
	base := fanoutSystem(t, 3)
	bdep, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	bst, err := bdep.Sim.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalMessages() >= bst.TotalMessages() {
		t.Errorf("optimized traffic %d !< baseline %d", st.TotalMessages(), bst.TotalMessages())
	}
}

// TestResyncSuppressionKeyedSet checks that the edge-keyed suppression
// plan agrees with the ResyncReport counts: every removed UBS "ack:"
// feedback edge maps back to its concrete dataflow edge with a covering
// witness, and deployment layers can trust the keyed set as the single
// source of truth.
func TestResyncSuppressionKeyedSet(t *testing.T) {
	const workers = 3
	sys := fanoutSystem(t, workers)
	plan, err := ResyncSuppression(sys.Graph, sys.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	rep := plan.Report
	removedAcks := 0
	for _, e := range append(append([]syncgraph.Edge{}, rep.RemovedFirst...), rep.RemovedByResync...) {
		if strings.HasPrefix(e.Label, "ack:") {
			removedAcks++
		}
	}
	// fanoutSystem is all-UBS and fully redundant: the keyed set must
	// cover exactly the removed ack edges — all 2*workers IPC edges.
	if removedAcks != 2*workers {
		t.Fatalf("removed %d ack edges, want %d: %s", removedAcks, 2*workers, rep)
	}
	if len(plan.Suppressed) != removedAcks {
		t.Fatalf("keyed set has %d edges, report removed %d ack edges",
			len(plan.Suppressed), removedAcks)
	}
	if plan.AckFeedback != 2*workers || plan.AckSurviving != 0 {
		t.Errorf("feedback=%d surviving=%d, want %d and 0",
			plan.AckFeedback, plan.AckSurviving, 2*workers)
	}
	for _, eid := range sys.Graph.Edges() {
		witness, ok := plan.Suppressed[eid]
		if !ok {
			t.Errorf("edge %q missing from suppression set", sys.Graph.Edge(eid).Name)
			continue
		}
		if witness == "" {
			t.Errorf("edge %q has no covering-path witness", sys.Graph.Edge(eid).Name)
		}
	}
	// Canonical wire order: sorted, no duplicates.
	ids := plan.SuppressedIDs()
	if len(ids) != len(plan.Suppressed) {
		t.Fatalf("SuppressedIDs returned %d ids for %d edges", len(ids), len(plan.Suppressed))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("SuppressedIDs not strictly ascending: %v", ids)
		}
	}
}

// TestResyncSuppressionSingleProc: no IPC edges, empty keyed set.
func TestResyncSuppressionSingleProc(t *testing.T) {
	g := dataflow.New("solo")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 1, 1, dataflow.EdgeSpec{})
	m := &sched.Mapping{
		NumProcs: 1, Proc: []sched.Processor{0, 0},
		Order: [][]dataflow.ActorID{{a, b}},
	}
	plan, err := ResyncSuppression(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Suppressed) != 0 || plan.AckFeedback != 0 {
		t.Errorf("single-proc system suppressed %d edges (feedback %d), want none",
			len(plan.Suppressed), plan.AckFeedback)
	}
}

func TestResyncSuppressionInvalidMapping(t *testing.T) {
	g := dataflow.New("bad")
	g.AddActor("A", 1)
	if _, err := ResyncSuppression(g, &sched.Mapping{NumProcs: 0}); err == nil {
		t.Error("invalid mapping should fail")
	}
}
