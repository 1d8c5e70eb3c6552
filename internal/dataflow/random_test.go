package dataflow

import (
	"testing"
	"testing/quick"
)

func TestRandomDeterministic(t *testing.T) {
	spec := DefaultRandomSpec()
	a, err := Random(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different graphs")
	}
	c, err := Random(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRandomValidation(t *testing.T) {
	if _, err := Random(RandomSpec{Actors: 1}, 1); err == nil {
		t.Error("1 actor should fail")
	}
}

func TestRandomDefaultsNormalized(t *testing.T) {
	// Zero bounds get clamped rather than producing invalid graphs.
	g, err := Random(RandomSpec{Actors: 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumActors() != 3 {
		t.Errorf("actors = %d", g.NumActors())
	}
}

// Property: every generated graph is consistent, connected, and has a PASS.
func TestRandomGraphsAlwaysSchedulable(t *testing.T) {
	spec := DefaultRandomSpec()
	f := func(seed uint64) bool {
		g, err := Random(spec, seed)
		if err != nil {
			return false
		}
		if !isWeaklyConnected(g) {
			return false
		}
		if _, err := g.RepetitionsVector(); err != nil {
			return false
		}
		sched, err := g.FindPASS()
		if err != nil {
			return false
		}
		ok, err := g.ScheduleReturnsToInitialState(sched)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: generated dynamic edges always have matching bounds (packed
// rate 1 on both sides keeps the graph consistent).
func TestRandomDynamicEdgesConsistent(t *testing.T) {
	spec := DefaultRandomSpec()
	spec.DynamicPercent = 100
	f := func(seed uint64) bool {
		g, err := Random(spec, seed)
		if err != nil {
			return false
		}
		for _, eid := range g.Edges() {
			e := g.Edge(eid)
			if e.Dynamic() && e.Produce.Rate != e.Consume.Rate {
				return false
			}
		}
		_, err = g.RepetitionsVector()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
