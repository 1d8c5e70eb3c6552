package syncgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// parallelSyncPair builds two vertices with two parallel sync edges of the
// given delays.
func parallelSyncPair(d1, d2 int64) *Graph {
	g := NewGraph()
	a := g.AddVertex("A", 0, 1)
	b := g.AddVertex("B", 1, 1)
	g.AddEdge(a, b, d1, SyncEdge, "s1")
	g.AddEdge(a, b, d2, SyncEdge, "s2")
	return g
}

func TestParallelEdgesOneRedundant(t *testing.T) {
	g := parallelSyncPair(0, 3)
	// s2 (delay 3) is implied by s1 (delay 0 <= 3); s1 is NOT implied by s2.
	if !g.IsRedundant(1) {
		t.Error("looser parallel edge should be redundant")
	}
	if g.IsRedundant(0) {
		t.Error("tighter parallel edge must not be redundant")
	}
	removed := g.RemoveRedundant()
	if len(removed) != 1 || removed[0].Label != "s2" {
		t.Errorf("removed %v, want exactly s2", removed)
	}
	if g.SyncCount() != 1 {
		t.Errorf("SyncCount = %d, want 1", g.SyncCount())
	}
}

func TestMutualRedundancyKeepsOne(t *testing.T) {
	// Equal parallel edges imply each other; exactly one must survive.
	g := parallelSyncPair(2, 2)
	g.RemoveRedundant()
	if g.SyncCount() != 1 {
		t.Errorf("SyncCount = %d, want exactly 1 surviving edge", g.SyncCount())
	}
}

func TestRedundancyViaIntraprocPath(t *testing.T) {
	// The paper's figure-3 pattern: sendFrame -> sendCoeffs (program order)
	// and sendCoeffs -> PE (sync) make the direct sendFrame -> PE sync
	// redundant.
	g := NewGraph()
	sf := g.AddVertex("sendFrame", 0, 1)
	sc := g.AddVertex("sendCoeffs", 0, 1)
	pe := g.AddVertex("PE", 1, 1)
	g.AddEdge(sf, sc, 0, IntraprocEdge, "seq")
	direct := g.AddEdge(sf, pe, 0, SyncEdge, "frame-sync")
	g.AddEdge(sc, pe, 0, SyncEdge, "coeffs-sync")
	if !g.IsRedundant(direct) {
		t.Fatal("frame sync should be implied by program order + coeffs sync")
	}
	removed := g.RemoveRedundant()
	if len(removed) != 1 || removed[0].Label != "frame-sync" {
		t.Errorf("removed %v, want frame-sync", removed)
	}
}

func TestIPCEdgesNeverRemoved(t *testing.T) {
	// Even a fully redundant IPC edge stays: it carries data.
	g := NewGraph()
	a := g.AddVertex("A", 0, 1)
	b := g.AddVertex("B", 1, 1)
	g.AddEdge(a, b, 0, SyncEdge, "s")
	g.AddEdge(a, b, 5, IPCEdge, "data")
	removed := g.RemoveRedundant()
	if len(removed) != 0 {
		t.Errorf("removed %v, want none", removed)
	}
	if len(g.EdgesOfKind(IPCEdge)) != 1 {
		t.Error("IPC edge vanished")
	}
}

func TestRedundancyNeedsDelayDominance(t *testing.T) {
	// Path delay 2 does NOT imply an edge with delay 1 (weaker constraint
	// cannot subsume a stronger one).
	g := NewGraph()
	a := g.AddVertex("A", 0, 1)
	b := g.AddVertex("B", 1, 1)
	c := g.AddVertex("C", 2, 1)
	g.AddEdge(a, b, 1, SyncEdge, "ab")
	g.AddEdge(b, c, 1, SyncEdge, "bc")
	direct := g.AddEdge(a, c, 1, SyncEdge, "ac")
	if g.IsRedundant(direct) {
		t.Error("delay-1 edge wrongly subsumed by delay-2 path")
	}
	// But a delay-2 direct edge would be redundant.
	loose := g.AddEdge(a, c, 2, SyncEdge, "ac2")
	if !g.IsRedundant(loose) {
		t.Error("delay-2 edge should be subsumed by delay-2 path")
	}
}

// countRedundant returns how many live sync edges are currently redundant,
// without removing anything.
func countRedundant(g *Graph) int {
	n := 0
	for i := range g.edges {
		if g.edges[i].Kind == SyncEdge && g.IsRedundant(i) {
			n++
		}
	}
	return n
}

func TestCountRedundant(t *testing.T) {
	g := parallelSyncPair(0, 3)
	if got := countRedundant(g); got != 1 {
		t.Errorf("countRedundant = %d, want 1", got)
	}
	g.RemoveRedundant()
	if got := countRedundant(g); got != 0 {
		t.Errorf("after removal countRedundant = %d, want 0", got)
	}
}

// Property: after RemoveRedundant, every removed edge's constraint is still
// implied by the surviving graph (min-delay path <= removed delay), and no
// surviving sync edge is redundant.
func TestRemoveRedundantSemanticsPreservedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		n := 3 + r.Intn(5)
		for i := 0; i < n; i++ {
			g.AddVertex("v", i%2, 1+int64(r.Intn(10)))
		}
		m := 2 + r.Intn(3*n)
		for i := 0; i < m; i++ {
			src := VertexID(r.Intn(n))
			snk := VertexID(r.Intn(n))
			if src == snk {
				continue
			}
			g.AddEdge(src, snk, int64(r.Intn(4)), SyncEdge, "s")
		}
		before := g.Clone()
		removed := g.RemoveRedundant()
		// 1. Every removed constraint is implied by the survivors.
		for _, e := range removed {
			dist := g.minDelayFrom(e.Src, -1)
			if dist[e.Snk] == infDelay || dist[e.Snk] > e.Delay {
				return false
			}
		}
		// 2. No live sync edge is redundant.
		if countRedundant(g) != 0 {
			return false
		}
		// 3. Surviving min-delay constraints are not weaker than before:
		// for every ordered pair, dist_after <= dist_before is required in
		// the other direction — removal can only *increase* path delays,
		// but any increase must stay within what removed edges allowed.
		// Simpler check: re-adding removed edges changes no distance.
		restored := g.Clone()
		for _, e := range removed {
			restored.AddEdge(e.Src, e.Snk, e.Delay, SyncEdge, "restored")
		}
		for v := 0; v < n; v++ {
			da := g.minDelayFrom(VertexID(v), -1)
			db := restored.minDelayFrom(VertexID(v), -1)
			for w := 0; w < n; w++ {
				if da[w] != db[w] {
					return false
				}
			}
		}
		_ = before
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
