package lpc

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/vts"
)

// The full application-1 graph is CodecSystem's: io_send (A + B + C), actor
// D on n PEs, and io_recv (E).

func TestFullGraphStructure(t *testing.T) {
	sys, err := CodecSystem(DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	g, m := sys.Graph, sys.Mapping
	if g.NumActors() != 5 {
		t.Fatalf("actors = %d, want 5 (io_send, 3 PEs, io_recv)", g.NumActors())
	}
	if g.NumEdges() != 10 {
		t.Fatalf("edges = %d, want 10 (coeffs/sect/errs per PE, model)", g.NumEdges())
	}
	for _, eid := range g.Edges() {
		if !g.Edge(eid).Dynamic() {
			t.Errorf("edge %s should be dynamic", g.Edge(eid).Name)
		}
	}
	q, err := g.RepetitionsVector()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range q {
		if v != 1 {
			t.Fatalf("q = %v, want all ones (frame granularity)", q)
		}
	}
	ioRecv, _ := g.ActorByName("io_recv")
	if m.NumProcs != 5 || int(m.Proc[ioRecv]) != 4 || len(m.Order[4]) != 1 {
		t.Errorf("io_recv on processor %d of %d, want alone on the last of 5", m.Proc[ioRecv], m.NumProcs)
	}
}

func TestFullGraphRejectsBadParams(t *testing.T) {
	if _, err := CodecSystem(Params{}, 1); err == nil {
		t.Error("zero params should fail")
	}
	if _, err := CodecSystem(DefaultParams(), 0); err == nil {
		t.Error("zero PEs should fail")
	}
}

func TestFullGraphVTSAnalyzable(t *testing.T) {
	sys, err := CodecSystem(DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := vts.Convert(sys.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conv.Graph.FindPASS(); err != nil {
		t.Fatal(err)
	}
	bounds, err := vts.ComputeBounds(conv)
	if err != nil {
		t.Fatal(err)
	}
	// Feed-forward graph: no feedback path, so buffers are statically
	// unbounded (UBS) — which is exactly why the paper's deployment adds
	// back-pressure at the I/O interface.
	for _, b := range bounds {
		if b.CE <= 0 {
			t.Errorf("edge %s has no c(e) bound", conv.Graph.Edge(b.Edge).Name)
		}
	}
}

func TestFullGraphSAS(t *testing.T) {
	sys, err := CodecSystem(DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	g := sys.Graph
	sas, err := sched.SingleAppearanceSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	if sas.Appearances() != 5 {
		t.Errorf("SAS appearances = %d, want 5: %s", sas.Appearances(), sas.Notation(g))
	}
	flat := sas.Flatten()
	ok, err := g.ScheduleReturnsToInitialState(flat)
	if err != nil || !ok {
		t.Errorf("SAS invalid: %v %v", ok, err)
	}
}

func TestFullGraphDIsComputeHotspot(t *testing.T) {
	// The paper parallelizes D because it dominates the stages downstream
	// of the FFT: on one PE, D outweighs E, and C's LU solve is a small
	// part of io_send next to B.
	p := DefaultParams()
	sys, err := CodecSystem(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := sys.Graph
	dID, _ := g.ActorByName("pe0")
	eID, _ := g.ActorByName("io_recv")
	d, e := g.Actor(dID).ExecCycles, g.Actor(eID).ExecCycles
	c := int64(2*p.Order*p.Order*p.Order/3 + 10*p.Order*p.Order)
	if d <= e || d <= c {
		t.Errorf("D (%d) should outweigh C (%d) and E (%d)", d, c, e)
	}
}

func TestFullGraphListSchedule(t *testing.T) {
	sys, err := CodecSystem(DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	g := sys.Graph
	m, err := sched.ListSchedule(g, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.SelfTimed(g, m, sched.SelfTimedConfig{Iterations: 10, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Period <= 0 {
		t.Error("no steady-state period")
	}
	// On its own mapping the codec pipelines frames: the period is that of
	// the heaviest stage, below one frame's path through all of them.
	own, err := sched.SelfTimed(g, sys.Mapping, sched.SelfTimedConfig{Iterations: 10, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	var path int64
	for _, name := range []string{"io_send", "pe0", "io_recv"} {
		a, _ := g.ActorByName(name)
		path += g.Actor(a).ExecCycles
	}
	if own.Period <= 0 || own.Period >= float64(path) {
		t.Errorf("period %.1f on the codec's own mapping, want below one frame's path of %d cycles", own.Period, path)
	}
}
