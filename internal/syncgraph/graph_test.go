package syncgraph

import (
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/sched"
)

func TestAddVertexAndEdge(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("A", 0, 10)
	b := g.AddVertex("B", 1, 20)
	g.AddEdge(a, b, 2, IPCEdge, "data")
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("got %d/%d, want 2/1", g.NumVertices(), g.NumEdges())
	}
	e := g.Edges()[0]
	if e.Src != a || e.Snk != b || e.Delay != 2 || e.Kind != IPCEdge || e.Label != "data" {
		t.Errorf("edge corrupted: %+v", e)
	}
	if g.Vertex(a).Name != "A" || g.Vertex(b).Proc != 1 {
		t.Error("vertex data corrupted")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := NewGraph()
	a := g.AddVertex("A", 0, 1)
	g.AddEdge(a, a, -1, SyncEdge, "bad")
}

func TestEdgeKindString(t *testing.T) {
	for k, want := range map[EdgeKind]string{
		IntraprocEdge: "intraproc", LoopbackEdge: "loopback", IPCEdge: "ipc", SyncEdge: "sync",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %s", want, k)
		}
	}
}

func TestSyncCountExcludesStructural(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("A", 0, 1)
	b := g.AddVertex("B", 0, 1)
	c := g.AddVertex("C", 1, 1)
	g.AddEdge(a, b, 0, IntraprocEdge, "seq")
	g.AddEdge(b, a, 1, LoopbackEdge, "loop")
	g.AddEdge(b, c, 0, IPCEdge, "data")
	g.AddEdge(c, b, 1, SyncEdge, "ack")
	if got := g.SyncCount(); got != 2 {
		t.Errorf("SyncCount = %d, want 2 (ipc + sync only)", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("A", 0, 1)
	b := g.AddVertex("B", 1, 1)
	g.AddEdge(a, b, 0, SyncEdge, "s")
	c := g.Clone()
	c.AddEdge(b, a, 1, SyncEdge, "back")
	if g.NumEdges() != 1 || c.NumEdges() != 2 {
		t.Errorf("clone not independent: %d vs %d", g.NumEdges(), c.NumEdges())
	}
}

func TestDOTOutput(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("A", 0, 1)
	b := g.AddVertex("B", 1, 1)
	g.AddEdge(a, b, 1, SyncEdge, "s")
	dot := g.DOT("test")
	for _, want := range []string{"digraph", "dashed", `label="1"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func buildMappedPipeline(t *testing.T) (*dataflow.Graph, *sched.Mapping) {
	t.Helper()
	g := dataflow.New("pipe")
	a := g.AddActor("A", 10)
	b := g.AddActor("B", 10)
	c := g.AddActor("C", 10)
	g.AddEdge("ab", a, b, 1, 1, dataflow.EdgeSpec{})
	g.AddEdge("bc", b, c, 1, 1, dataflow.EdgeSpec{Delay: 2})
	m := &sched.Mapping{
		NumProcs: 2,
		Proc:     []sched.Processor{0, 0, 1},
		Order:    [][]dataflow.ActorID{{a, b}, {c}},
	}
	return g, m
}

func TestBuildIPCGraph(t *testing.T) {
	g, m := buildMappedPipeline(t)
	sg, err := BuildIPCGraph(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumVertices() != 3 {
		t.Fatalf("vertices = %d, want 3", sg.NumVertices())
	}
	kinds := map[EdgeKind]int{}
	for _, e := range sg.Edges() {
		kinds[e.Kind]++
	}
	// a->b intraproc; loopback on each proc (2); b->c IPC.
	if kinds[IntraprocEdge] != 1 || kinds[LoopbackEdge] != 2 || kinds[IPCEdge] != 1 {
		t.Errorf("edge kinds = %v", kinds)
	}
	// bc has 2 delays and moves 1 token/iter: slack = 2.
	for _, e := range sg.EdgesOfKind(IPCEdge) {
		if e.Delay != 2 {
			t.Errorf("IPC edge delay = %d, want 2", e.Delay)
		}
	}
}

func TestBuildIPCGraphUsesBlockCost(t *testing.T) {
	// q scales exec: A fires twice per iteration.
	g := dataflow.New("r")
	a := g.AddActor("A", 10)
	b := g.AddActor("B", 10)
	g.AddEdge("ab", a, b, 1, 2, dataflow.EdgeSpec{}) // q = [2 1]
	m := &sched.Mapping{
		NumProcs: 2,
		Proc:     []sched.Processor{0, 1},
		Order:    [][]dataflow.ActorID{{a}, {b}},
	}
	sg, err := BuildIPCGraph(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Vertex(0).ExecCycles != 20 {
		t.Errorf("block cost = %d, want 20", sg.Vertex(0).ExecCycles)
	}
}

func TestAddFeedback(t *testing.T) {
	g, m := buildMappedPipeline(t)
	sg, err := BuildIPCGraph(g, m)
	if err != nil {
		t.Fatal(err)
	}
	n := AddAllFeedback(sg, 3)
	if n != 1 {
		t.Fatalf("added %d feedback edges, want 1", n)
	}
	var found bool
	for _, e := range sg.EdgesOfKind(SyncEdge) {
		if strings.HasPrefix(e.Label, "ack:") && e.Delay == 3 {
			found = true
		}
	}
	if !found {
		t.Error("feedback edge missing or mislabeled")
	}
}

func TestAddFeedbackClampsSlots(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("A", 0, 1)
	b := g.AddVertex("B", 1, 1)
	g.AddEdge(a, b, 0, IPCEdge, "d")
	AddAllFeedback(g, 0)
	if e := g.EdgesOfKind(SyncEdge)[0]; e.Delay != 1 {
		t.Errorf("clamped delay = %d, want 1", e.Delay)
	}
}
