package dataflow

import (
	"strings"
	"testing"
)

// chain builds A -(p0)->(c0)- B -(p1)->(c1)- C ... with the given rates.
func chain(t *testing.T, rates [][2]int) *Graph {
	t.Helper()
	g := New("chain")
	prev := g.AddActor("a0", 10)
	for i, rc := range rates {
		next := g.AddActor("a"+string(rune('1'+i)), 10)
		g.AddEdge("e"+string(rune('0'+i)), prev, next, rc[0], rc[1], EdgeSpec{})
		prev = next
	}
	return g
}

func TestAddActorAndEdge(t *testing.T) {
	g := New("t")
	a := g.AddActor("A", 5)
	b := g.AddActor("B", 7)
	e := g.AddEdge("ab", a, b, 2, 3, EdgeSpec{Delay: 1, TokenBytes: 4})

	if g.NumActors() != 2 || g.NumEdges() != 1 {
		t.Fatalf("got %d actors %d edges, want 2/1", g.NumActors(), g.NumEdges())
	}
	if g.Actor(a).Name != "A" || g.Actor(a).ExecCycles != 5 {
		t.Errorf("actor A corrupted: %+v", g.Actor(a))
	}
	ed := g.Edge(e)
	if ed.Src != a || ed.Snk != b || ed.Produce.Rate != 2 || ed.Consume.Rate != 3 {
		t.Errorf("edge corrupted: %+v", ed)
	}
	if ed.Delay != 1 || ed.TokenBytes != 4 {
		t.Errorf("edge spec not applied: %+v", ed)
	}
	if len(g.Out(a)) != 1 || len(g.In(b)) != 1 {
		t.Errorf("adjacency lists wrong: out(a)=%v in(b)=%v", g.Out(a), g.Out(b))
	}
	if id, ok := g.ActorByName("B"); !ok || id != b {
		t.Errorf("ActorByName(B) = %v,%v", id, ok)
	}
	if _, ok := g.ActorByName("Z"); ok {
		t.Errorf("ActorByName(Z) unexpectedly found")
	}
}

func TestDuplicateActorNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate actor name")
		}
	}()
	g := New("t")
	g.AddActor("A", 1)
	g.AddActor("A", 1)
}

func TestZeroRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero rate")
		}
	}()
	g := New("t")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("e", a, b, 0, 1, EdgeSpec{})
}

func TestDefaultTokenBytesIsOne(t *testing.T) {
	g := New("t")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	e := g.AddEdge("e", a, b, 1, 1, EdgeSpec{})
	if g.Edge(e).TokenBytes != 1 {
		t.Errorf("TokenBytes = %d, want 1", g.Edge(e).TokenBytes)
	}
}

func TestDynamicEdgeFlag(t *testing.T) {
	g := New("t")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	e1 := g.AddEdge("static", a, b, 2, 2, EdgeSpec{})
	e2 := g.AddEdge("dyn", a, b, 10, 8, EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true})
	if g.Edge(e1).Dynamic() {
		t.Error("static edge reported dynamic")
	}
	if !g.Edge(e2).Dynamic() {
		t.Error("dynamic edge reported static")
	}
	if g.Edge(e2).Produce.Kind != DynamicPort || g.Edge(e2).Consume.Kind != DynamicPort {
		t.Error("port kinds not set")
	}
}

func TestPortKindString(t *testing.T) {
	if StaticPort.String() != "static" || DynamicPort.String() != "dynamic" {
		t.Errorf("PortKind strings: %s %s", StaticPort, DynamicPort)
	}
	if !strings.Contains(PortKind(9).String(), "9") {
		t.Errorf("unknown kind string: %s", PortKind(9))
	}
}

func TestValidate(t *testing.T) {
	g := New("empty")
	if err := g.Validate(); err == nil {
		t.Error("empty graph should not validate")
	}
	g2 := chain(t, [][2]int{{1, 1}})
	if err := g2.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
}

func TestStringOutput(t *testing.T) {
	g := chain(t, [][2]int{{2, 3}})
	s := g.String()
	for _, want := range []string{"chain", "a0", "a1", "-(2)-> (3)-"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := New("d")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 2, 3, EdgeSpec{Delay: 1})
	g.AddEdge("dyn", a, b, 4, 4, EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true})
	dot := g.DOT()
	for _, want := range []string{"digraph", "2:3", "dashed", "•1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}
