package dataflow

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRepetitionsChain(t *testing.T) {
	// A -(2)->(3)- B: q = [3,2]
	g := chain(t, [][2]int{{2, 3}})
	q, err := g.RepetitionsVector()
	if err != nil {
		t.Fatal(err)
	}
	if q[0] != 3 || q[1] != 2 {
		t.Errorf("q = %v, want [3 2]", q)
	}
}

func TestRepetitionsMultiStage(t *testing.T) {
	// A -(3)->(2)- B -(2)->(3)- C: q = [2,3,2]
	g := chain(t, [][2]int{{3, 2}, {2, 3}})
	q, err := g.RepetitionsVector()
	if err != nil {
		t.Fatal(err)
	}
	want := Repetitions{2, 3, 2}
	for i := range want {
		if q[i] != want[i] {
			t.Errorf("q = %v, want %v", q, want)
			break
		}
	}
}

func TestRepetitionsInconsistent(t *testing.T) {
	// A->B with rate 2:1 and A->B with rate 1:1 cannot balance.
	g := New("bad")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("e1", a, b, 2, 1, EdgeSpec{})
	g.AddEdge("e2", a, b, 1, 1, EdgeSpec{})
	_, err := g.RepetitionsVector()
	var ie *InconsistentError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want InconsistentError", err)
	}
	if ie.Edge == "" {
		t.Error("InconsistentError should name the offending edge")
	}
}

func TestRepetitionsCycleConsistent(t *testing.T) {
	// A -(1)->(1)- B -(1)->(1)- A (with delay to avoid deadlock, delay
	// does not matter for consistency).
	g := New("cycle")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 1, 1, EdgeSpec{})
	g.AddEdge("ba", b, a, 1, 1, EdgeSpec{Delay: 1})
	q, err := g.RepetitionsVector()
	if err != nil {
		t.Fatal(err)
	}
	if q[0] != 1 || q[1] != 1 {
		t.Errorf("q = %v, want [1 1]", q)
	}
}

func TestRepetitionsCycleInconsistent(t *testing.T) {
	// A -(2)->(1)- B -(1)->(1)- A: around the loop q_A*2 = q_B and
	// q_B = q_A — impossible.
	g := New("badcycle")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 2, 1, EdgeSpec{})
	g.AddEdge("ba", b, a, 1, 1, EdgeSpec{Delay: 4})
	if _, err := g.RepetitionsVector(); err == nil {
		t.Fatal("expected inconsistency")
	}
}

func TestRepetitionsDisconnectedComponents(t *testing.T) {
	g := New("two")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	d := g.AddActor("D", 1)
	g.AddEdge("ab", a, b, 2, 1, EdgeSpec{})
	g.AddEdge("cd", c, d, 1, 5, EdgeSpec{})
	q, err := g.RepetitionsVector()
	if err != nil {
		t.Fatal(err)
	}
	// Each component minimal independently: [1 2] and [5 1].
	if q[0] != 1 || q[1] != 2 || q[2] != 5 || q[3] != 1 {
		t.Errorf("q = %v, want [1 2 5 1]", q)
	}
}

func TestRepetitionsDynamicPortsCountAsRateOne(t *testing.T) {
	// Paper figure 1: A's dynamic production (bound 10) and B's dynamic
	// consumption (bound 8) become rate-1 packed tokens, so q = [1 1].
	g := New("fig1")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 10, 8, EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true})
	q, err := g.RepetitionsVector()
	if err != nil {
		t.Fatal(err)
	}
	if q[0] != 1 || q[1] != 1 {
		t.Errorf("q = %v, want [1 1]", q)
	}
}

func TestIterationTokens(t *testing.T) {
	g := chain(t, [][2]int{{2, 3}})
	q, _ := g.RepetitionsVector()
	if got := g.IterationTokens(q, 0); got != 6 {
		t.Errorf("IterationTokens = %d, want 6 (3 firings x 2 tokens)", got)
	}
}

// randomConsistentChain builds a chain with random rates; chains are always
// consistent, so the repetitions vector must satisfy the balance equations.
func randomConsistentChain(r *rand.Rand) *Graph {
	g := New("prop")
	n := 2 + r.Intn(6)
	prev := g.AddActor("a0", 1)
	for i := 1; i < n; i++ {
		next := g.AddActor("a"+string(rune('0'+i)), 1)
		p := 1 + r.Intn(6)
		c := 1 + r.Intn(6)
		g.AddEdge("e"+string(rune('0'+i)), prev, next, p, c, EdgeSpec{})
		prev = next
	}
	return g
}

func TestRepetitionsBalanceProperty(t *testing.T) {
	// Property: for every edge, q[src]*produce == q[snk]*consume, and the
	// vector is minimal (gcd of entries is 1).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConsistentChain(r)
		q, err := g.RepetitionsVector()
		if err != nil {
			return false
		}
		var gcd int64
		for _, v := range q {
			if v <= 0 {
				return false
			}
			gcd = gcd64(gcd, v)
		}
		if gcd != 1 {
			return false
		}
		for _, eid := range g.Edges() {
			e := g.Edge(eid)
			if q[e.Src]*int64(e.Produce.Rate) != q[e.Snk]*int64(e.Consume.Rate) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGCD64(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 5, 5}, {5, 0, 5}, {12, 18, 6}, {7, 13, 1}, {-12, 18, 6},
	}
	for _, c := range cases {
		if got := gcd64(c.a, c.b); got != c.want {
			t.Errorf("gcd64(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
