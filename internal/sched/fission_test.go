package sched

import (
	"testing"

	"repro/internal/dataflow"
)

func fissionSchedGraph() (*dataflow.Graph, dataflow.ActorID) {
	g := dataflow.New("fsched")
	src := g.AddActor("src", 100)
	mid := g.AddActor("mid", 5000)
	sink := g.AddActor("sink", 50)
	g.AddEdge("sm", src, mid, 2, 2, dataflow.EdgeSpec{TokenBytes: 4})
	g.AddEdge("ms", mid, sink, 3, 3, dataflow.EdgeSpec{TokenBytes: 4, ProduceDynamic: true, ConsumeDynamic: true})
	return g, mid
}

func TestExtendFissionPlacement(t *testing.T) {
	g, mid := fissionSchedGraph()
	const k = 3
	plan, err := dataflow.Fission(g, mid, dataflow.FissionOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	m, err := singleProcessor(g)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := ExtendFission(m, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.Validate(plan.Graph); err != nil {
		t.Fatal(err)
	}
	if fm.NumProcs != m.NumProcs+k {
		t.Errorf("NumProcs = %d, want %d", fm.NumProcs, m.NumProcs+k)
	}
	// Source actors keep their processors; the gather rides with the
	// scatter; replicas each get a processor of their own.
	for _, a := range g.Actors() {
		if fm.Proc[a] != m.Proc[a] {
			t.Errorf("actor %q moved from proc %d to %d", g.Actor(a).Name, m.Proc[a], fm.Proc[a])
		}
	}
	if fm.Proc[plan.Gather] != fm.Proc[plan.Scatter] {
		t.Errorf("gather on proc %d, scatter on %d", fm.Proc[plan.Gather], fm.Proc[plan.Scatter])
	}
	seen := map[Processor]bool{}
	for _, r := range plan.Replicas {
		p := fm.Proc[r]
		if int(p) < m.NumProcs {
			t.Errorf("replica %q placed on pre-existing proc %d", plan.Graph.Actor(r).Name, p)
		}
		if seen[p] {
			t.Errorf("two replicas share proc %d", p)
		}
		seen[p] = true
	}
	// Gather immediately follows scatter in the scatter proc's order.
	order := fm.Order[fm.Proc[plan.Scatter]]
	for i, a := range order {
		if a == plan.Scatter {
			if i+1 >= len(order) || order[i+1] != plan.Gather {
				t.Errorf("gather does not immediately follow scatter in order %v", order)
			}
		}
	}
}

func TestExtendFissionRejectsBadSourceMapping(t *testing.T) {
	g, mid := fissionSchedGraph()
	plan, err := dataflow.Fission(g, mid, dataflow.FissionOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := &Mapping{NumProcs: 1, Proc: make([]Processor, 1), Order: [][]dataflow.ActorID{{0}}}
	if _, err := ExtendFission(bad, plan); err == nil {
		t.Error("ExtendFission accepted a mapping that does not cover the source graph")
	}
}
