package dataflow

import (
	"fmt"
	"math/rand"
	"testing"
)

// fissionTestGraph: src -(4:4, delay 4)-> heavy -(dyn 8:8)-> sink, with a
// second broadcastable side input. heavy is the natural fission target.
func fissionTestGraph() (*Graph, ActorID) {
	g := New("fiss")
	src := g.AddActor("src", 100)
	aux := g.AddActor("aux", 10)
	heavy := g.AddActor("heavy", 100000)
	sink := g.AddActor("sink", 50)
	g.AddEdge("sh", src, heavy, 4, 4, EdgeSpec{TokenBytes: 2, Delay: 4})
	g.AddEdge("ah", aux, heavy, 1, 1, EdgeSpec{TokenBytes: 8})
	g.AddEdge("hs", heavy, sink, 8, 8, EdgeSpec{TokenBytes: 2, ProduceDynamic: true, ConsumeDynamic: true})
	return g, heavy
}

func TestSplitCountsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(200)
		k := 1 + rng.Intn(12)
		counts := SplitCounts(n, k)
		if len(counts) != k {
			t.Fatalf("SplitCounts(%d,%d) has %d entries", n, k, len(counts))
		}
		sum := 0
		for i, c := range counts {
			if c < 0 {
				t.Fatalf("SplitCounts(%d,%d)[%d] = %d < 0", n, k, i, c)
			}
			if i < k-1 && c != n/k {
				t.Fatalf("SplitCounts(%d,%d)[%d] = %d, want floor %d", n, k, i, c, n/k)
			}
			sum += c
		}
		if sum != n {
			t.Fatalf("SplitCounts(%d,%d) sums to %d", n, k, sum)
		}
		// Last replica takes the remainder: never less than the others'
		// base share.
		if n > 0 && counts[k-1] < n/k {
			t.Fatalf("SplitCounts(%d,%d) last = %d < base %d", n, k, counts[k-1], n/k)
		}
	}
}

func TestChunkBoundDominatesSplitCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		total := 1 + rng.Intn(64)
		k := 1 + rng.Intn(10)
		for n := 0; n <= total; n++ {
			counts := SplitCounts(n, k)
			for i, c := range counts {
				if b := ChunkBound(total, k, i); c > b {
					t.Fatalf("SplitCounts(%d,%d)[%d] = %d exceeds ChunkBound(%d,%d,%d) = %d",
						n, k, i, c, total, k, i, b)
				}
			}
		}
	}
}

func TestFissionRewriteStructure(t *testing.T) {
	g, heavy := fissionTestGraph()
	const k = 3
	plan, err := Fission(g, heavy, FissionOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	f := plan.Graph
	// Source actor and edge IDs survive with their names.
	for _, a := range g.Actors() {
		if f.Actor(a).Name != g.Actor(a).Name {
			t.Errorf("actor %d renamed %q -> %q", a, g.Actor(a).Name, f.Actor(a).Name)
		}
	}
	for _, e := range g.Edges() {
		if f.Edge(e).Name != g.Edge(e).Name {
			t.Errorf("edge %d renamed %q -> %q", e, g.Edge(e).Name, f.Edge(e).Name)
		}
	}
	if f.NumActors() != g.NumActors()+k+1 {
		t.Errorf("rewritten graph has %d actors, want %d", f.NumActors(), g.NumActors()+k+1)
	}
	if f.NumEdges() != g.NumEdges()+k*(len(g.In(heavy))+len(g.Out(heavy))) {
		t.Errorf("rewritten graph has %d edges", f.NumEdges())
	}
	// The fissioned actor's node is the scatter stage; its old output
	// edge is re-rooted at the gather.
	if plan.Scatter != heavy {
		t.Errorf("scatter = %d, want reused node %d", plan.Scatter, heavy)
	}
	for _, eid := range g.Out(heavy) {
		if f.Edge(eid).Src != plan.Gather {
			t.Errorf("output edge %q src = %d, want gather %d", f.Edge(eid).Name, f.Edge(eid).Src, plan.Gather)
		}
	}
	// Delays survive where they were.
	if f.Edge(0).Delay != 4 {
		t.Errorf("delay on sh = %d, want 4", f.Edge(0).Delay)
	}
	// The rewritten graph is consistent and vectorizable.
	if _, err := f.RepetitionsVector(); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckBlock(4); err != nil {
		t.Fatal(err)
	}
	// Scatter/gather plumbing is complete and dynamic.
	for _, eid := range g.In(heavy) {
		ids := plan.ScatterEdges[eid]
		if len(ids) != k {
			t.Fatalf("scatter edges for %q: %d, want %d", g.Edge(eid).Name, len(ids), k)
		}
		for i, id := range ids {
			e := f.Edge(id)
			if !e.Dynamic() {
				t.Errorf("scatter edge %q is static", e.Name)
			}
			if e.Src != plan.Scatter || e.Snk != plan.Replicas[i] {
				t.Errorf("scatter edge %q wired %d->%d", e.Name, e.Src, e.Snk)
			}
		}
	}
	for _, eid := range g.Out(heavy) {
		ids := plan.GatherEdges[eid]
		if len(ids) != k {
			t.Fatalf("gather edges for %q: %d, want %d", g.Edge(eid).Name, len(ids), k)
		}
		for i, id := range ids {
			e := f.Edge(id)
			if e.Src != plan.Replicas[i] || e.Snk != plan.Gather {
				t.Errorf("gather edge %q wired %d->%d", e.Name, e.Src, e.Snk)
			}
		}
	}
}

func TestFissionableRejects(t *testing.T) {
	g := New("bad")
	src := g.AddActor("src", 1)
	loop := g.AddActor("loop", 1)
	snk := g.AddActor("snk", 1)
	g.AddEdge("sl", src, loop, 1, 1, EdgeSpec{})
	g.AddEdge("ll", loop, loop, 1, 1, EdgeSpec{Delay: 1})
	g.AddEdge("ls", loop, snk, 1, 1, EdgeSpec{})
	for _, tc := range []struct {
		a    ActorID
		name string
	}{
		{src, "source"}, {snk, "sink"}, {loop, "self-loop"},
	} {
		if _, err := Fission(g, tc.a, FissionOptions{K: 2}); err == nil {
			t.Errorf("fission of %s actor should fail", tc.name)
		}
	}
}

func TestHeaviestFissionable(t *testing.T) {
	g, heavy := fissionTestGraph()
	got, err := HeaviestFissionable(g)
	if err != nil {
		t.Fatal(err)
	}
	if got != heavy {
		t.Errorf("HeaviestFissionable = %d, want %d", got, heavy)
	}
}

// TestFissionJointSelection: unbounded memory picks maximum parallelism
// with a block that amortizes the added messages; a tight memory bound
// backs both off, and an impossible bound is an error.
func TestFissionJointSelection(t *testing.T) {
	g, heavy := fissionTestGraph()
	free, err := Fission(g, heavy, FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if free.K != fissionMaxK || free.Block != fissionMaxBlock {
		t.Errorf("unbounded choice (k=%d, B=%d), want (%d, %d)", free.K, free.Block, fissionMaxK, fissionMaxBlock)
	}
	bounded, err := Fission(g, heavy, FissionOptions{MemBound: free.MemoryBytes / 4})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.MemoryBytes > free.MemoryBytes/4 {
		t.Errorf("bounded choice uses %d bytes, bound %d", bounded.MemoryBytes, free.MemoryBytes/4)
	}
	if bounded.K > free.K && bounded.Block > free.Block {
		t.Errorf("bound did not back off: (k=%d, B=%d) vs free (k=%d, B=%d)",
			bounded.K, bounded.Block, free.K, free.Block)
	}
	if _, err := Fission(g, heavy, FissionOptions{K: 4, MemBound: 1}); err == nil {
		t.Error("impossible bound should fail for fixed k")
	}
}

// Fission of every eligible actor of a mid-size random DAG must produce
// a consistent, schedulable graph.
func TestFissionRandomGraphsStayConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		g := New(fmt.Sprintf("rand%d", trial))
		actors := make([]ActorID, 4+rng.Intn(5))
		for i := range actors {
			actors[i] = g.AddActor(fmt.Sprintf("a%d", i), int64(1+rng.Intn(1000)))
		}
		edges := 0
		for i := 1; i < len(actors); i++ {
			src := actors[rng.Intn(i)]
			dyn := rng.Intn(2) == 0
			rate := 1 + rng.Intn(6)
			g.AddEdge(fmt.Sprintf("e%d", edges), src, actors[i], rate, rate,
				EdgeSpec{TokenBytes: 1 + rng.Intn(8), Delay: rng.Intn(3) * rate,
					ProduceDynamic: dyn, ConsumeDynamic: dyn})
			edges++
		}
		for _, a := range g.Actors() {
			if Fissionable(g, a) != nil {
				continue
			}
			k := 1 + rng.Intn(5)
			plan, err := Fission(g, a, FissionOptions{K: k})
			if err != nil {
				t.Fatalf("trial %d actor %d k %d: %v", trial, a, k, err)
			}
			if _, err := plan.Graph.RepetitionsVector(); err != nil {
				t.Fatalf("trial %d actor %d: inconsistent rewrite: %v", trial, a, err)
			}
			if _, err := plan.Graph.TopologicalOrder(); err != nil {
				t.Fatalf("trial %d actor %d: rewrite broke schedulability: %v", trial, a, err)
			}
		}
	}
}
