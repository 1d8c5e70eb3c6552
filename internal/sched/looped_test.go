package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
)

// cdChain builds the classic CD-to-DAT style chain A -(1)->(2)- B -(3)->(2)- C.
func cdChain() *dataflow.Graph {
	g := dataflow.New("cd")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	g.AddEdge("ab", a, b, 1, 2, dataflow.EdgeSpec{TokenBytes: 2})
	g.AddEdge("bc", b, c, 3, 2, dataflow.EdgeSpec{TokenBytes: 2})
	return g
}

func TestSASEachActorOnce(t *testing.T) {
	g := cdChain()
	sas, err := SingleAppearanceSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	if sas.Appearances() != 3 {
		t.Errorf("appearances = %d, want 3:\n%s", sas.Appearances(), sas.Notation(g))
	}
}

func TestSASFlattenIsValidPASS(t *testing.T) {
	g := cdChain()
	q, _ := g.RepetitionsVector() // [4 2 3]
	sas, err := SingleAppearanceSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	flat := sas.Flatten()
	var want int64
	for _, v := range q {
		want += v
	}
	if int64(len(flat)) != want {
		t.Errorf("flattened length %d, want %d (%s)", len(flat), want, sas.Notation(g))
	}
	ok, err := g.ScheduleReturnsToInitialState(flat)
	if err != nil || !ok {
		t.Errorf("flattened SAS invalid: ok=%v err=%v", ok, err)
	}
}

func TestSASNotationRoundtrip(t *testing.T) {
	g := cdChain()
	sas, err := SingleAppearanceSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	nota := sas.Notation(g)
	// Every actor name appears exactly once in the notation.
	for _, name := range []string{"A", "B", "C"} {
		count := 0
		for i := 0; i+len(name) <= len(nota); i++ {
			if nota[i:i+len(name)] == name {
				count++
			}
		}
		if count != 1 {
			t.Errorf("actor %s appears %d times in %q", name, count, nota)
		}
	}
}

// flatSAS returns the trivial single-appearance schedule in topological
// order, (q[a1] a1)(q[a2] a2)...: the baseline APGAN is checked against.
func flatSAS(g *dataflow.Graph) (*LoopNode, error) {
	q, err := g.RepetitionsVector()
	if err != nil {
		return nil, err
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	root := &LoopNode{Count: 1, Actor: dataflow.NoActor}
	for _, a := range order {
		root.Body = append(root.Body, &LoopNode{Count: q[a], Actor: a})
	}
	return root, nil
}

func TestAPGANNoWorseThanFlatSAS(t *testing.T) {
	g := cdChain()
	apgan, err := SingleAppearanceSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := flatSAS(g)
	if err != nil {
		t.Fatal(err)
	}
	mem1, err := SASBufferMemory(g, apgan)
	if err != nil {
		t.Fatal(err)
	}
	mem2, err := SASBufferMemory(g, flat)
	if err != nil {
		t.Fatal(err)
	}
	if mem1 > mem2 {
		t.Errorf("APGAN memory %d > flat SAS memory %d (%s vs %s)",
			mem1, mem2, apgan.Notation(g), flat.Notation(g))
	}
}

func TestFlatSASValid(t *testing.T) {
	g := cdChain()
	flat, err := flatSAS(g)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := g.ScheduleReturnsToInitialState(flat.Flatten())
	if err != nil || !ok {
		t.Errorf("flat SAS invalid: ok=%v err=%v", ok, err)
	}
	if flat.Appearances() != 3 {
		t.Errorf("appearances = %d", flat.Appearances())
	}
}

func TestSASDisconnectedComponents(t *testing.T) {
	g := dataflow.New("two")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	d := g.AddActor("D", 1)
	g.AddEdge("ab", a, b, 2, 1, dataflow.EdgeSpec{})
	g.AddEdge("cd", c, d, 1, 3, dataflow.EdgeSpec{})
	sas, err := SingleAppearanceSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	if sas.Appearances() != 4 {
		t.Errorf("appearances = %d, want 4", sas.Appearances())
	}
	ok, err := g.ScheduleReturnsToInitialState(sas.Flatten())
	if err != nil || !ok {
		t.Errorf("disconnected SAS invalid: ok=%v err=%v", ok, err)
	}
}

func TestSASDeadlockedCycleFails(t *testing.T) {
	g := dataflow.New("dead")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 1, 1, dataflow.EdgeSpec{})
	g.AddEdge("ba", b, a, 1, 1, dataflow.EdgeSpec{})
	if _, err := SingleAppearanceSchedule(g); err == nil {
		t.Fatal("deadlocked graph should not have a SAS")
	}
}

func TestSASSingleActor(t *testing.T) {
	g := dataflow.New("one")
	g.AddActor("A", 1)
	sas, err := SingleAppearanceSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	if !sas.IsLeaf() || len(sas.Flatten()) != 1 {
		t.Errorf("single-actor SAS = %s", sas.Notation(g))
	}
}

// Property: for random consistent chains, the SAS flattens to a valid PASS
// with each actor appearing exactly once in the tree.
func TestSASProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := dataflow.New("prop")
		n := 2 + r.Intn(6)
		prev := g.AddActor("a0", 1)
		for i := 1; i < n; i++ {
			next := g.AddActor("a"+string(rune('0'+i)), 1)
			g.AddEdge("e"+string(rune('0'+i)), prev, next,
				1+r.Intn(5), 1+r.Intn(5), dataflow.EdgeSpec{TokenBytes: 1 + r.Intn(4)})
			prev = next
		}
		sas, err := SingleAppearanceSchedule(g)
		if err != nil {
			return false
		}
		if sas.Appearances() != n {
			return false
		}
		ok, err := g.ScheduleReturnsToInitialState(sas.Flatten())
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: on random consistent graphs (chains plus extra forward and
// delayed feedback edges), the firing counts read back out of the SAS's
// looped Notation — each leaf's count times its enclosing loop counts —
// equal the repetitions vector exactly, and blocking the schedule
// multiplies every actor's firings by the blocking factor.
func TestSASNotationFiringsMatchRepetitions(t *testing.T) {
	spec := dataflow.DefaultRandomSpec()
	checked := 0
	for seed := uint64(0); seed < 60; seed++ {
		g, err := dataflow.Random(spec, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		q, err := g.RepetitionsVector()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sas, err := SingleAppearanceSchedule(g)
		if err != nil {
			// APGAN clusters without delay analysis, so a feedback edge can
			// legitimately defeat it; feedback-free graphs must never fail.
			if spec.FeedbackEdges == 0 {
				t.Fatalf("seed %d: no SAS for an acyclic random graph: %v", seed, err)
			}
			continue
		}
		checked++
		firings := notationFirings(t, sas.Notation(g))
		blocked := notationFirings(t, BlockedSAS(sas, 3).Notation(g))
		for a, want := range q {
			name := g.Actor(dataflow.ActorID(a)).Name
			if firings[name] != want {
				t.Errorf("seed %d: %s fires %d times in %q, want q = %d",
					seed, name, firings[name], sas.Notation(g), want)
			}
			if blocked[name] != 3*want {
				t.Errorf("seed %d: blocked %s fires %d times, want 3*q = %d",
					seed, name, blocked[name], 3*want)
			}
		}
	}
	if checked < 3 {
		t.Fatalf("only %d of 60 random graphs produced a SAS; the property barely ran", checked)
	}

	// Feedback-free sweep: here every graph must have a SAS.
	spec.FeedbackEdges = 0
	for seed := uint64(100); seed < 130; seed++ {
		g, err := dataflow.Random(spec, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		q, _ := g.RepetitionsVector()
		sas, err := SingleAppearanceSchedule(g)
		if err != nil {
			t.Fatalf("seed %d: no SAS for an acyclic random graph: %v", seed, err)
		}
		firings := notationFirings(t, sas.Notation(g))
		for a, want := range q {
			name := g.Actor(dataflow.ActorID(a)).Name
			if firings[name] != want {
				t.Errorf("seed %d: %s fires %d times in %q, want q = %d",
					seed, name, firings[name], sas.Notation(g), want)
			}
		}
	}
}

func TestLoopNodeNotationCounts(t *testing.T) {
	g := dataflow.New("n")
	a := g.AddActor("X", 1)
	leaf := &LoopNode{Count: 3, Actor: a}
	if got := leaf.Notation(g); got != "(3 X)" {
		t.Errorf("notation = %q", got)
	}
	one := &LoopNode{Count: 1, Actor: a}
	if got := one.Notation(g); got != "X" {
		t.Errorf("notation = %q", got)
	}
}
