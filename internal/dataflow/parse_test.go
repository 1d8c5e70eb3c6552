package dataflow

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const sampleGraph = `
# the paper's figure-1 example with a credit loop
graph fig1
actor A 10
actor B 20
edge ab A B 10 8 dynamic bytes=2
edge ba B A 1 1 delay=2
`

func TestParseSample(t *testing.T) {
	g, err := ParseString(sampleGraph)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "fig1" || g.NumActors() != 2 || g.NumEdges() != 2 {
		t.Fatalf("parsed %s", g)
	}
	a, _ := g.ActorByName("A")
	if g.Actor(a).ExecCycles != 10 {
		t.Error("exec cycles lost")
	}
	ab := g.Edge(0)
	if !ab.Dynamic() || ab.TokenBytes != 2 || ab.Produce.Rate != 10 || ab.Consume.Rate != 8 {
		t.Errorf("edge ab = %+v", ab)
	}
	ba := g.Edge(1)
	if ba.Delay != 2 || ba.Dynamic() {
		t.Errorf("edge ba = %+v", ba)
	}
}

func TestParseOneSidedDynamic(t *testing.T) {
	g, err := ParseString("graph g\nactor A 1\nactor B 1\nedge e A B 4 4 dynsrc\nedge f B A 4 4 dynsnk\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.Edge(0).Produce.Kind != DynamicPort || g.Edge(0).Consume.Kind != StaticPort {
		t.Error("dynsrc wrong")
	}
	if g.Edge(1).Produce.Kind != StaticPort || g.Edge(1).Consume.Kind != DynamicPort {
		t.Error("dynsnk wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"no graph":         "actor A 1\n",
		"double graph":     "graph a\ngraph b\n",
		"bad actor":        "graph g\nactor A x\n",
		"dup actor":        "graph g\nactor A 1\nactor A 1\n",
		"edge before":      "edge e A B 1 1\n",
		"short edge":       "graph g\nactor A 1\nedge e A\n",
		"unknown src":      "graph g\nactor A 1\nedge e Z A 1 1\n",
		"unknown snk":      "graph g\nactor A 1\nedge e A Z 1 1\n",
		"zero rate":        "graph g\nactor A 1\nactor B 1\nedge e A B 0 1\n",
		"bad consume":      "graph g\nactor A 1\nactor B 1\nedge e A B 1 x\n",
		"bad option":       "graph g\nactor A 1\nactor B 1\nedge e A B 1 1 wat\n",
		"bad delay":        "graph g\nactor A 1\nactor B 1\nedge e A B 1 1 delay=x\n",
		"negative bytes":   "graph g\nactor A 1\nactor B 1\nedge e A B 1 1 bytes=0\n",
		"unknown keyword":  "graph g\nblah\n",
		"negative cycles":  "graph g\nactor A -4\n",
		"usage graph name": "graph\n",
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: expected parse error for %q", name, src)
		}
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	g, err := ParseString("# header\n\ngraph g # trailing\n  actor A 5  \n")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumActors() != 1 {
		t.Error("comment handling broken")
	}
}

// emit writes g in the Parse format, the oracle the round-trip tests parse
// back: Parse(emit(g)) reproduces g.
func emit(g *Graph, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "graph %s\n", g.name); err != nil {
		return err
	}
	for _, a := range g.Actors() {
		act := g.Actor(a)
		if _, err := fmt.Fprintf(w, "actor %s %d\n", act.Name, act.ExecCycles); err != nil {
			return err
		}
	}
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		opts := ""
		switch {
		case e.Produce.Kind == DynamicPort && e.Consume.Kind == DynamicPort:
			opts += " dynamic"
		case e.Produce.Kind == DynamicPort:
			opts += " dynsrc"
		case e.Consume.Kind == DynamicPort:
			opts += " dynsnk"
		}
		if e.Delay != 0 {
			opts += fmt.Sprintf(" delay=%d", e.Delay)
		}
		if e.TokenBytes != 1 {
			opts += fmt.Sprintf(" bytes=%d", e.TokenBytes)
		}
		if _, err := fmt.Fprintf(w, "edge %s %s %s %d %d%s\n",
			e.Name, g.Actor(e.Src).Name, g.Actor(e.Snk).Name,
			e.Produce.Rate, e.Consume.Rate, opts); err != nil {
			return err
		}
	}
	return nil
}

func TestEmitParseRoundtrip(t *testing.T) {
	g, err := ParseString(sampleGraph)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := emit(g, &sb); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, sb.String())
	}
	if g.String() != g2.String() {
		t.Errorf("roundtrip changed the graph:\n%s\nvs\n%s", g, g2)
	}
}

// Property: Emit/Parse roundtrip preserves random graphs.
func TestEmitParseRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New("p")
		n := 2 + r.Intn(5)
		for i := 0; i < n; i++ {
			g.AddActor("a"+string(rune('A'+i)), int64(r.Intn(1000)))
		}
		m := 1 + r.Intn(8)
		for i := 0; i < m; i++ {
			spec := EdgeSpec{
				Delay:          r.Intn(4),
				TokenBytes:     1 + r.Intn(8),
				ProduceDynamic: r.Intn(3) == 0,
				ConsumeDynamic: r.Intn(3) == 0,
			}
			g.AddEdge("e"+string(rune('0'+i)), ActorID(r.Intn(n)), ActorID(r.Intn(n)),
				1+r.Intn(9), 1+r.Intn(9), spec)
		}
		var sb strings.Builder
		if emit(g, &sb) != nil {
			return false
		}
		g2, err := ParseString(sb.String())
		if err != nil {
			return false
		}
		return g.String() == g2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
