package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
)

// pipeline builds a homogeneous chain A0 -> A1 -> ... with the given
// per-actor cycle costs.
func pipeline(costs ...int64) *dataflow.Graph {
	g := dataflow.New("pipe")
	var prev dataflow.ActorID
	for i, c := range costs {
		a := g.AddActor("a"+string(rune('0'+i)), c)
		if i > 0 {
			g.AddEdge("e"+string(rune('0'+i)), prev, a, 1, 1, dataflow.EdgeSpec{})
		}
		prev = a
	}
	return g
}

// fanout builds src -> {w0..wn-1} -> sink, the shape of the paper's
// parallelized error-generation actor D.
func fanout(workers int, srcCost, workerCost, sinkCost int64) *dataflow.Graph {
	g := dataflow.New("fanout")
	src := g.AddActor("src", srcCost)
	snk := g.AddActor("snk", sinkCost)
	for i := 0; i < workers; i++ {
		w := g.AddActor("w"+string(rune('0'+i)), workerCost)
		g.AddEdge("in"+string(rune('0'+i)), src, w, 1, 1, dataflow.EdgeSpec{})
		g.AddEdge("out"+string(rune('0'+i)), w, snk, 1, 1, dataflow.EdgeSpec{})
	}
	return g
}

// singleProcessor returns the trivial mapping that places every actor on
// processor 0 in topological order.
func singleProcessor(g *dataflow.Graph) (*Mapping, error) {
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	return &Mapping{
		NumProcs: 1,
		Proc:     make([]Processor, g.NumActors()),
		Order:    [][]dataflow.ActorID{order},
	}, nil
}

func TestSingleProcessorMapping(t *testing.T) {
	g := pipeline(10, 20, 30)
	m, err := singleProcessor(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(m.InterprocessorEdges(g)) != 0 {
		t.Error("single processor mapping has IPC edges")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	g := pipeline(1, 1)
	cases := []struct {
		name string
		m    Mapping
	}{
		{"no procs", Mapping{NumProcs: 0}},
		{"wrong actor count", Mapping{NumProcs: 1, Proc: []Processor{0}, Order: [][]dataflow.ActorID{{0}}}},
		{"wrong order lists", Mapping{NumProcs: 2, Proc: []Processor{0, 0}, Order: [][]dataflow.ActorID{{0, 1}}}},
		{"missing actor", Mapping{NumProcs: 1, Proc: []Processor{0, 0}, Order: [][]dataflow.ActorID{{0}}}},
		{"duplicate actor", Mapping{NumProcs: 1, Proc: []Processor{0, 0}, Order: [][]dataflow.ActorID{{0, 0}}}},
		{"mismatched proc", Mapping{NumProcs: 2, Proc: []Processor{0, 0}, Order: [][]dataflow.ActorID{{0}, {1}}}},
	}
	for _, c := range cases {
		if err := c.m.Validate(g); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestLevelsChain(t *testing.T) {
	g := pipeline(10, 20, 30)
	q, _ := g.RepetitionsVector()
	levels, err := Levels(g, q)
	if err != nil {
		t.Fatal(err)
	}
	// level = cost + downstream: [60, 50, 30]
	want := []int64{60, 50, 30}
	for i := range want {
		if levels[i] != want[i] {
			t.Errorf("levels = %v, want %v", levels, want)
			break
		}
	}
}

func TestLevelsRespectsRepetitions(t *testing.T) {
	g := dataflow.New("r")
	a := g.AddActor("A", 10)
	b := g.AddActor("B", 10)
	g.AddEdge("ab", a, b, 2, 1, dataflow.EdgeSpec{}) // q = [1 2]
	q, _ := g.RepetitionsVector()
	levels, err := Levels(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if levels[b] != 20 { // 2 firings x 10 cycles
		t.Errorf("level(B) = %d, want 20", levels[b])
	}
	if levels[a] != 30 {
		t.Errorf("level(A) = %d, want 30", levels[a])
	}
}

func TestListScheduleFanoutBalances(t *testing.T) {
	g := fanout(4, 1, 100, 1)
	m, err := ListSchedule(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	// With 4 equal workers and 4 processors, each processor should get at
	// least one worker (perfect balance of the dominant cost).
	workerCount := make([]int, 4)
	for a := 0; a < g.NumActors(); a++ {
		name := g.Actor(dataflow.ActorID(a)).Name
		if name[0] == 'w' {
			workerCount[m.Proc[a]]++
		}
	}
	for p, c := range workerCount {
		if c != 1 {
			t.Errorf("processor %d has %d workers, want 1 (placement %v)", p, c, m.Proc)
		}
	}
}

func TestListScheduleSingleProcEqualsPASSOrder(t *testing.T) {
	g := pipeline(5, 5, 5)
	m, err := ListSchedule(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Order[0]) != 3 {
		t.Fatalf("order = %v", m.Order)
	}
	// Must respect precedence: a0 before a1 before a2.
	pos := map[dataflow.ActorID]int{}
	for i, a := range m.Order[0] {
		pos[a] = i
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Errorf("order violates precedence: %v", m.Order[0])
	}
}

func TestSelfTimedPipelineSingleProc(t *testing.T) {
	g := pipeline(10, 20, 30)
	m, _ := singleProcessor(g)
	res, err := SelfTimed(g, m, SelfTimedConfig{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential: each iteration takes 60 cycles, no overlap.
	if res.IterationFinish[0] != 60 || res.IterationFinish[2] != 180 {
		t.Errorf("iteration finishes = %v, want [60 120 180]", res.IterationFinish)
	}
	if res.Period != 60 {
		t.Errorf("period = %v, want 60", res.Period)
	}
	if res.ProcBusy[0] != 180 {
		t.Errorf("busy = %v, want [180]", res.ProcBusy)
	}
}

func TestSelfTimedFanoutSpeedup(t *testing.T) {
	g := fanout(4, 1, 100, 1)
	m, err := ListSchedule(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	single, err := singleProcessor(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SelfTimedConfig{Iterations: 4}
	base, err := SelfTimed(g, single, cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := SelfTimed(g, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := float64(base.Finish) / float64(multi.Finish)
	// 4 parallel workers of 100 cycles dominate: near-4x, certainly > 2x.
	if s < 2.0 {
		t.Errorf("speedup = %v, want > 2", s)
	}
}

func TestSelfTimedDelayedEdgePipelines(t *testing.T) {
	// A -> B with one iteration of delay: B(k) depends on A(k-1), so on two
	// processors the steady-state period is max(costA, costB), not the sum.
	g := dataflow.New("d")
	a := g.AddActor("A", 100)
	b := g.AddActor("B", 100)
	g.AddEdge("ab", a, b, 1, 1, dataflow.EdgeSpec{Delay: 1})
	m := &Mapping{
		NumProcs: 2,
		Proc:     []Processor{0, 1},
		Order:    [][]dataflow.ActorID{{a}, {b}},
	}
	res, err := SelfTimed(g, m, SelfTimedConfig{Iterations: 6, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Period != 100 {
		t.Errorf("pipelined period = %v, want 100", res.Period)
	}
}

func TestSelfTimedRejectsBadConfig(t *testing.T) {
	g := pipeline(1, 1)
	m, _ := singleProcessor(g)
	if _, err := SelfTimed(g, m, SelfTimedConfig{Iterations: 0}); err == nil {
		t.Error("Iterations=0 should fail")
	}
}

// Property: list schedules over random fanouts are always valid and their
// self-timed finish never beats the sequential-work lower bound
// (total work / nprocs) and never exceeds total work + comm overhead.
func TestListScheduleBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		workers := 1 + r.Intn(6)
		nprocs := 1 + r.Intn(4)
		g := fanout(workers, 1+int64(r.Intn(10)), 10+int64(r.Intn(200)), 1+int64(r.Intn(10)))
		m, err := ListSchedule(g, nprocs, int64(r.Intn(20)))
		if err != nil {
			return false
		}
		if m.Validate(g) != nil {
			return false
		}
		res, err := SelfTimed(g, m, SelfTimedConfig{Iterations: 1})
		if err != nil {
			return false
		}
		var totalWork int64
		for a := 0; a < g.NumActors(); a++ {
			totalWork += g.Actor(dataflow.ActorID(a)).ExecCycles
		}
		if res.Finish < totalWork/int64(nprocs) {
			return false // beats the work lower bound: impossible
		}
		return res.Finish <= totalWork // zero-comm sim can't exceed serialization
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestInterprocessorEdges(t *testing.T) {
	g := pipeline(1, 1, 1)
	m := &Mapping{
		NumProcs: 2,
		Proc:     []Processor{0, 0, 1},
		Order:    [][]dataflow.ActorID{{0, 1}, {2}},
	}
	ipc := m.InterprocessorEdges(g)
	if len(ipc) != 1 {
		t.Fatalf("ipc edges = %v, want exactly the a1->a2 edge", ipc)
	}
	if g.Edge(ipc[0]).Snk != 2 {
		t.Errorf("wrong IPC edge: %+v", g.Edge(ipc[0]))
	}
}
