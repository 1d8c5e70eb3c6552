package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
)

func TestETFValidMapping(t *testing.T) {
	g := fanout(4, 1, 100, 1)
	m, err := ETFSchedule(g, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestETFRejectsBadInput(t *testing.T) {
	g := fanout(2, 1, 10, 1)
	if _, err := ETFSchedule(g, 0, 0); err == nil {
		t.Error("0 procs should fail")
	}
	dead := dataflow.New("dead")
	a := dead.AddActor("A", 1)
	b := dead.AddActor("B", 1)
	dead.AddEdge("ab", a, b, 1, 1, dataflow.EdgeSpec{})
	dead.AddEdge("ba", b, a, 1, 1, dataflow.EdgeSpec{})
	if _, err := ETFSchedule(dead, 2, 0); err == nil {
		t.Error("cyclic graph should fail")
	}
}

func TestETFAvoidsExpensiveCommunication(t *testing.T) {
	// A chain of small actors: with huge communication cost, ETF should
	// keep everything on one processor.
	g := pipeline(10, 10, 10, 10, 10, 10)
	const comm = 100000
	etf, err := ETFSchedule(g, 3, comm)
	if err != nil {
		t.Fatal(err)
	}
	if len(etf.InterprocessorEdges(g)) != 0 {
		t.Errorf("ETF split a chain despite %d-cycle comm", comm)
	}
}

func TestETFBalancesFanout(t *testing.T) {
	g := fanout(4, 1, 100, 1)
	m, err := ETFSchedule(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]int, 4)
	for a := 0; a < g.NumActors(); a++ {
		if g.Actor(dataflow.ActorID(a)).Name[0] == 'w' {
			workers[m.Proc[a]]++
		}
	}
	for p, c := range workers {
		if c != 1 {
			t.Errorf("processor %d has %d workers, want 1", p, c)
		}
	}
}

// Property: ETF and HLF both produce valid mappings; neither beats the
// work/nprocs lower bound.
func TestETFProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		workers := 1 + r.Intn(5)
		nprocs := 1 + r.Intn(4)
		g := fanout(workers, 1+int64(r.Intn(10)), 10+int64(r.Intn(100)), 1+int64(r.Intn(10)))
		m, err := ETFSchedule(g, nprocs, int64(r.Intn(30)))
		if err != nil || m.Validate(g) != nil {
			return false
		}
		res, err := SelfTimed(g, m, SelfTimedConfig{Iterations: 1})
		if err != nil {
			return false
		}
		var work int64
		for a := 0; a < g.NumActors(); a++ {
			work += g.Actor(dataflow.ActorID(a)).ExecCycles
		}
		return res.Finish >= work/int64(nprocs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
