package dataflow

import "testing"

func TestTopologicalOrderChain(t *testing.T) {
	g := chain(t, [][2]int{{1, 1}, {1, 1}})
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("order = %v, want [0 1 2]", order)
	}
}

func TestTopologicalOrderDelayBreaksCycle(t *testing.T) {
	g := New("cycle")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 1, 1, EdgeSpec{})
	g.AddEdge("ba", b, a, 1, 1, EdgeSpec{Delay: 1}) // delay satisfies A's demand
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != a || order[1] != b {
		t.Errorf("order = %v, want [A B]", order)
	}
}

func TestTopologicalOrderDeadlockedCycle(t *testing.T) {
	g := New("dead")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 1, 1, EdgeSpec{})
	g.AddEdge("ba", b, a, 1, 1, EdgeSpec{}) // no delay anywhere: cyclic
	if _, err := g.TopologicalOrder(); err == nil {
		t.Fatal("expected cyclic error")
	}
}

func TestTopologicalOrderInsufficientDelay(t *testing.T) {
	// Sink needs 3 tokens per firing; delay of 2 still blocks.
	g := New("d")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 3, 3, EdgeSpec{Delay: 2})
	g.AddEdge("ba", b, a, 1, 1, EdgeSpec{})
	if _, err := g.TopologicalOrder(); err == nil {
		t.Fatal("delay 2 < consume 3 should still block")
	}
}

func TestMinDelayPaths(t *testing.T) {
	g := New("d")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	d := g.AddActor("D", 1)
	g.AddEdge("ab", a, b, 1, 1, EdgeSpec{Delay: 2})
	g.AddEdge("bc", b, c, 1, 1, EdgeSpec{Delay: 3})
	g.AddEdge("ac", a, c, 1, 1, EdgeSpec{Delay: 7})
	_ = d // unreachable

	dist := g.MinDelayPaths(a)
	if dist[a] != 0 {
		t.Errorf("dist[A] = %d, want 0", dist[a])
	}
	if dist[b] != 2 {
		t.Errorf("dist[B] = %d, want 2", dist[b])
	}
	if dist[c] != 5 { // via B: 2+3 beats direct 7
		t.Errorf("dist[C] = %d, want 5", dist[c])
	}
	if dist[d] != InfiniteDelay {
		t.Errorf("dist[D] = %d, want InfiniteDelay", dist[d])
	}
}

// isWeaklyConnected reports whether g is connected when edge direction is
// ignored: the property Random promises. Single-actor graphs are connected;
// the empty graph is not.
func isWeaklyConnected(g *Graph) bool {
	n := len(g.actors)
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	queue := []ActorID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for _, eid := range g.out[a] {
			if w := g.edges[eid].Snk; !seen[w] {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
		for _, eid := range g.in[a] {
			if w := g.edges[eid].Src; !seen[w] {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == n
}

func TestIsWeaklyConnected(t *testing.T) {
	g := New("empty")
	if isWeaklyConnected(g) {
		t.Error("empty graph should not be connected")
	}
	g.AddActor("A", 1)
	if !isWeaklyConnected(g) {
		t.Error("single actor should be connected")
	}
	g.AddActor("B", 1)
	if isWeaklyConnected(g) {
		t.Error("two isolated actors should not be connected")
	}
	g.AddEdge("ab", 0, 1, 1, 1, EdgeSpec{})
	if !isWeaklyConnected(g) {
		t.Error("connected pair reported disconnected")
	}
}
