package experiments

import (
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/vts"
)

// TestFullPipelineIntegration drives the complete compile-run flow on a
// synthetic multirate application: build graph -> VTS conversion -> bounds
// -> list scheduling -> IPC/synchronization graph -> resynchronization ->
// SPI lowering -> platform execution with tracing. Each stage's output
// feeds the next, so a regression anywhere in the chain surfaces here.
func TestFullPipelineIntegration(t *testing.T) {
	// A multirate front-end: sensor -> framer (1:8 upsample in packed
	// terms) -> two parallel filter banks -> combiner -> sink, with a
	// dynamic-size side channel from the framer to the combiner and a
	// credit feedback loop bounding the whole pipeline.
	g := dataflow.New("frontend")
	sensor := g.AddActor("sensor", 40)
	framer := g.AddActor("framer", 120)
	bankA := g.AddActor("bankA", 700)
	bankB := g.AddActor("bankB", 700)
	comb := g.AddActor("combiner", 90)
	sink := g.AddActor("sink", 30)
	g.AddEdge("raw", sensor, framer, 8, 8, dataflow.EdgeSpec{TokenBytes: 2})
	g.AddEdge("fa", framer, bankA, 1, 1, dataflow.EdgeSpec{TokenBytes: 16})
	g.AddEdge("fb", framer, bankB, 1, 1, dataflow.EdgeSpec{TokenBytes: 16})
	g.AddEdge("oa", bankA, comb, 1, 1, dataflow.EdgeSpec{TokenBytes: 16})
	g.AddEdge("ob", bankB, comb, 1, 1, dataflow.EdgeSpec{TokenBytes: 16})
	side := g.AddEdge("meta", framer, comb, 32, 32, dataflow.EdgeSpec{
		ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 1,
	})
	g.AddEdge("out", comb, sink, 1, 1, dataflow.EdgeSpec{TokenBytes: 4})
	g.AddEdge("credit", sink, sensor, 1, 1, dataflow.EdgeSpec{Delay: 3})

	// Stage 1: SDF sanity.
	q, err := g.RepetitionsVector()
	if err != nil {
		t.Fatal(err)
	}
	if q[sensor] != 1 || q[framer] != 1 {
		t.Fatalf("q = %v", q)
	}
	if _, err := g.FindPASS(); err != nil {
		t.Fatal(err)
	}

	// Stage 2: VTS bounds — the credit loop should bound everything.
	conv, err := vts.Convert(g)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := vts.ComputeBounds(conv)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bounds {
		if !b.Bounded {
			t.Errorf("edge %s unbounded despite credit loop", conv.Graph.Edge(b.Edge).Name)
		}
	}

	// Stage 3: list scheduling onto 3 processors balances the banks.
	m, err := sched.ListSchedule(g, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if m.Proc[bankA] == m.Proc[bankB] {
		t.Error("the two filter banks should land on different processors")
	}

	// Stage 4: synchronization analysis.
	plan, err := spi.ResyncSuppression(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep := plan.Report; rep.SyncAfter > rep.SyncBefore {
		t.Errorf("resynchronization increased sync edges: %s", rep)
	}
	if _, live := plan.Graph.MaxCycleMean(); !live {
		t.Fatal("optimized graph deadlocked")
	}

	// Stage 5: SPI lowering and platform execution with tracing.
	dep, err := spi.Build(&spi.System{
		Graph: g, Mapping: m,
		PayloadFn: map[dataflow.EdgeID]func(int) int{
			side: func(iter int) int { return (iter*5 + 3) % 33 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dep.Sim.EnableTrace()
	st, err := dep.Sim.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if st.Finish <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	// The dynamic edge must have moved varying payloads.
	var sidePlan *spi.EdgePlan
	for i := range dep.Plans {
		if dep.Plans[i].Edge == side {
			sidePlan = &dep.Plans[i]
		}
	}
	if m.Proc[framer] != m.Proc[comb] {
		if sidePlan == nil {
			t.Fatal("dynamic edge plan missing")
		}
		if sidePlan.Mode != spi.Dynamic {
			t.Errorf("side edge mode = %v, want Dynamic", sidePlan.Mode)
		}
	}
	// Trace covers all processors and renders.
	tr := dep.Sim.LastTrace()
	if tr == nil || len(tr.Segments) == 0 {
		t.Fatal("trace empty")
	}
	gantt := tr.Gantt(m.NumProcs, 72)
	if !strings.Contains(gantt, "PE0") {
		t.Errorf("gantt malformed:\n%s", gantt)
	}

	// Stage 6: self-timed analytic model agrees with the platform within
	// a loose factor (the platform adds communication costs).
	res, err := sched.SelfTimed(g, m, sched.SelfTimedConfig{Iterations: 30, Warmup: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish <= 0 {
		t.Fatal("analytic model returned nothing")
	}
	ratio := float64(st.Finish) / float64(res.Finish)
	if ratio < 0.8 || ratio > 3.0 {
		t.Errorf("platform/analytic finish ratio %.2f outside sanity band (platform %d, analytic %d)",
			ratio, st.Finish, res.Finish)
	}
}
