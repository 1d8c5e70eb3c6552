package spi

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/platform"
	"repro/internal/sched"
)

// mappedPair builds A(on PE0) -> B(on PE1) with the given edge spec.
func mappedPair(t *testing.T, produce, consume int, spec dataflow.EdgeSpec) (*dataflow.Graph, *sched.Mapping) {
	t.Helper()
	g := dataflow.New("pair")
	a := g.AddActor("A", 100)
	b := g.AddActor("B", 100)
	g.AddEdge("ab", a, b, produce, consume, spec)
	m := &sched.Mapping{
		NumProcs: 2,
		Proc:     []sched.Processor{0, 1},
		Order:    [][]dataflow.ActorID{{a}, {b}},
	}
	return g, m
}

func TestBuildStaticEdge(t *testing.T) {
	g, m := mappedPair(t, 4, 4, dataflow.EdgeSpec{TokenBytes: 2})
	dep, err := Build(&System{Graph: g, Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Plans) != 1 {
		t.Fatalf("plans = %v", dep.Plans)
	}
	p := dep.Plans[0]
	if p.Mode != Static {
		t.Errorf("mode = %v, want Static", p.Mode)
	}
	if dep.Sim.Channel(p.Channel).HeaderBytes != StaticHeaderBytes {
		t.Errorf("header = %d, want %d", dep.Sim.Channel(p.Channel).HeaderBytes, StaticHeaderBytes)
	}
	st, err := dep.Sim.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages[platform.DataMsg] != 10 {
		t.Errorf("messages = %d, want 10", st.Messages[platform.DataMsg])
	}
	// Payload per message = 4 tokens x 2 bytes = 8, plus 2-byte header.
	if st.Bytes[platform.DataMsg] != 10*(8+StaticHeaderBytes) {
		t.Errorf("bytes = %d", st.Bytes[platform.DataMsg])
	}
}

func TestBuildDynamicEdgeUsesDynamicHeaderAndUBS(t *testing.T) {
	// No feedback path: the bound analysis cannot bound the buffer, so
	// the edge must land on UBS with a dynamic header.
	g, m := mappedPair(t, 10, 10, dataflow.EdgeSpec{
		ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 2,
	})
	sizes := []int{4, 20, 0, 12}
	dep, err := Build(&System{
		Graph: g, Mapping: m,
		PayloadFn: map[dataflow.EdgeID]func(int) int{
			0: func(iter int) int { return sizes[iter%len(sizes)] },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := dep.Plans[0]
	if p.Mode != Dynamic || p.Protocol != UBS {
		t.Errorf("plan = %+v, want Dynamic/UBS", p)
	}
	st, err := dep.Sim.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	wantPayload := int64(4 + 20 + 0 + 12)
	if st.Bytes[platform.DataMsg] != wantPayload+4*DynamicHeaderBytes {
		t.Errorf("data bytes = %d, want %d", st.Bytes[platform.DataMsg], wantPayload+4*DynamicHeaderBytes)
	}
	if st.Messages[platform.AckMsg] != 4 {
		t.Errorf("acks = %d, want 4 (UBS)", st.Messages[platform.AckMsg])
	}
}

func TestBuildBoundedEdgeGetsBBS(t *testing.T) {
	// Add a feedback edge with delay so eq. 2 bounds the buffer.
	g, m := mappedPair(t, 1, 1, dataflow.EdgeSpec{TokenBytes: 4})
	aID, _ := g.ActorByName("A")
	bID, _ := g.ActorByName("B")
	g.AddEdge("ba", bID, aID, 1, 1, dataflow.EdgeSpec{Delay: 2, TokenBytes: 1})
	dep, err := Build(&System{Graph: g, Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	var abPlan *EdgePlan
	for i := range dep.Plans {
		if g.Edge(dep.Plans[i].Edge).Name == "ab" {
			abPlan = &dep.Plans[i]
		}
	}
	if abPlan == nil {
		t.Fatal("ab plan missing")
	}
	if abPlan.Protocol != BBS {
		t.Errorf("protocol = %v, want BBS (bounded by feedback)", abPlan.Protocol)
	}
	if abPlan.Capacity < 1 {
		t.Errorf("capacity = %d", abPlan.Capacity)
	}
	if _, err := dep.Sim.Run(5); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPreloadFromDelay(t *testing.T) {
	// Edge with 2 iterations of delay lets the consumer start immediately.
	g, m := mappedPair(t, 1, 1, dataflow.EdgeSpec{TokenBytes: 4, Delay: 2})
	dep, err := Build(&System{Graph: g, Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	spec := dep.Sim.Channel(dep.Plans[0].Channel)
	if spec.Preload != 2 {
		t.Errorf("preload = %d, want 2", spec.Preload)
	}
	if _, err := dep.Sim.Run(5); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsBadMapping(t *testing.T) {
	g, _ := mappedPair(t, 1, 1, dataflow.EdgeSpec{})
	bad := &sched.Mapping{NumProcs: 1, Proc: []sched.Processor{0}, Order: [][]dataflow.ActorID{{0}}}
	if _, err := Build(&System{Graph: g, Mapping: bad}); err == nil {
		t.Error("mismatched mapping should fail")
	}
}
