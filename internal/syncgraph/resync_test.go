package syncgraph

import (
	"strings"
	"testing"
)

func TestHasZeroDelayCycle(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("A", 0, 1)
	b := g.AddVertex("B", 1, 1)
	g.AddEdge(a, b, 0, SyncEdge, "ab")
	if g.HasZeroDelayCycle() {
		t.Error("acyclic graph reported cyclic")
	}
	g.AddEdge(b, a, 1, SyncEdge, "ba")
	if g.HasZeroDelayCycle() {
		t.Error("delay on cycle should break it")
	}
	g.AddEdge(b, a, 0, SyncEdge, "ba0")
	if !g.HasZeroDelayCycle() {
		t.Error("zero-delay cycle not detected")
	}
}

func TestMaxCycleMeanSimpleLoop(t *testing.T) {
	// A(10) -> B(20) -> A with one delay: MCM = (10+20)/1 = 30.
	g := NewGraph()
	a := g.AddVertex("A", 0, 10)
	b := g.AddVertex("B", 1, 20)
	g.AddEdge(a, b, 0, IPCEdge, "ab")
	g.AddEdge(b, a, 1, SyncEdge, "ba")
	mcm, ok := g.MaxCycleMean()
	if !ok {
		t.Fatal("live graph reported dead")
	}
	if mcm < 29.9 || mcm > 30.1 {
		t.Errorf("MCM = %v, want 30", mcm)
	}
}

func TestMaxCycleMeanPicksWorstCycle(t *testing.T) {
	// Two loops: A<->B with 1 delay (mean 30) and A<->C with 2 delays
	// (mean (10+40)/2 = 25). MCM = 30.
	g := NewGraph()
	a := g.AddVertex("A", 0, 10)
	b := g.AddVertex("B", 1, 20)
	c := g.AddVertex("C", 2, 40)
	g.AddEdge(a, b, 0, IPCEdge, "ab")
	g.AddEdge(b, a, 1, SyncEdge, "ba")
	g.AddEdge(a, c, 0, IPCEdge, "ac")
	g.AddEdge(c, a, 2, SyncEdge, "ca")
	mcm, ok := g.MaxCycleMean()
	if !ok {
		t.Fatal("live graph reported dead")
	}
	if mcm < 29.9 || mcm > 30.1 {
		t.Errorf("MCM = %v, want 30", mcm)
	}
}

func TestMaxCycleMeanAcyclic(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("A", 0, 10)
	b := g.AddVertex("B", 1, 20)
	g.AddEdge(a, b, 0, IPCEdge, "ab")
	mcm, ok := g.MaxCycleMean()
	if !ok || mcm != 0 {
		t.Errorf("acyclic MCM = %v,%v, want 0,true", mcm, ok)
	}
}

func TestMaxCycleMeanDeadlocked(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("A", 0, 10)
	b := g.AddVertex("B", 1, 20)
	g.AddEdge(a, b, 0, SyncEdge, "ab")
	g.AddEdge(b, a, 0, SyncEdge, "ba")
	if _, ok := g.MaxCycleMean(); ok {
		t.Error("zero-delay cycle should report not-ok")
	}
}

// fig3Graph builds the paper's figure-3 "before resynchronization" graph
// for nPE processing elements: per PE an I/O interface processor with
// tasks {send frame, send coeffs, recv errors} and a PE processor with one
// compute task; sync edges for the three messages plus UBS acknowledgements
// for the two dynamic sends.
func fig3Graph(nPE int) *Graph {
	g := NewGraph()
	for i := 0; i < nPE; i++ {
		ioProc := 2 * i
		peProc := 2*i + 1
		sf := g.AddVertex("sendFrame", ioProc, 5)
		sc := g.AddVertex("sendCoeffs", ioProc, 5)
		re := g.AddVertex("recvErr", ioProc, 5)
		pe := g.AddVertex("PE", peProc, 100)
		g.AddEdge(sf, sc, 0, IntraprocEdge, "io-seq1")
		g.AddEdge(sc, re, 0, IntraprocEdge, "io-seq2")
		g.AddEdge(re, sf, 1, LoopbackEdge, "io-loop")
		g.AddEdge(pe, pe, 1, LoopbackEdge, "pe-loop")
		// Data messages (IPC) with their synchronization function.
		g.AddEdge(sf, pe, 0, IPCEdge, "frame")
		g.AddEdge(sc, pe, 0, IPCEdge, "coeffs")
		g.AddEdge(pe, re, 0, IPCEdge, "errors")
		// UBS acknowledgements for the dynamic-size sends, plus an ack for
		// the error return: each is a separate sync message before
		// optimization.
		g.AddEdge(pe, sf, 1, SyncEdge, "ack:frame")
		g.AddEdge(pe, sc, 1, SyncEdge, "ack:coeffs")
		g.AddEdge(re, pe, 1, SyncEdge, "ack:errors")
	}
	return g
}

func TestResynchronizeFig3RemovesRedundantAcks(t *testing.T) {
	g := fig3Graph(3)
	before := g.SyncCount()
	rep := Resynchronize(g)
	if rep.SyncBefore != before {
		t.Errorf("SyncBefore = %d, want %d", rep.SyncBefore, before)
	}
	if rep.SyncAfter >= rep.SyncBefore {
		t.Errorf("resynchronization did not reduce sync edges: %d -> %d", rep.SyncBefore, rep.SyncAfter)
	}
	// The redundant acknowledgements must be among the removals:
	// ack:frame (pe->sf, delay 1) is implied by ack:errors (re->pe is the
	// wrong direction; but pe->re... ) — at minimum, per-PE at least one
	// ack is redundant because pe->sf delay 1 is implied by
	// errors(pe->re, 0) + loopback(re->sf, 1).
	removedLabels := map[string]int{}
	for _, e := range append(rep.RemovedFirst, rep.RemovedByResync...) {
		removedLabels[e.Label]++
	}
	if removedLabels["ack:frame"] == 0 {
		t.Errorf("ack:frame should be removed (implied via errors + loopback); removed = %v", removedLabels)
	}
	if g.CountRedundant() != 0 {
		t.Error("redundant edges remain after resynchronization")
	}
}

func TestResynchronizePreservesPeriod(t *testing.T) {
	g := fig3Graph(2)
	before, ok := g.MaxCycleMean()
	if !ok {
		t.Fatal("fig3 graph should be live")
	}
	rep := Resynchronize(g)
	after, ok := g.MaxCycleMean()
	if !ok {
		t.Fatal("resynchronized graph deadlocked")
	}
	if after > before+1e-6 {
		t.Errorf("period degraded: %v -> %v (report %s)", before, after, rep)
	}
}

func TestResynchronizeNoOpOnOptimalGraph(t *testing.T) {
	// A single sync edge between two processors: nothing to remove or add.
	g := NewGraph()
	a := g.AddVertex("A", 0, 1)
	b := g.AddVertex("B", 1, 1)
	g.AddEdge(a, b, 0, IPCEdge, "data")
	rep := Resynchronize(g)
	if rep.SyncBefore != 1 || rep.SyncAfter != 1 || len(rep.Added) != 0 {
		t.Errorf("unexpected changes on optimal graph: %s", rep)
	}
}

func TestResyncReportString(t *testing.T) {
	rep := &ResyncReport{SyncBefore: 5, SyncAfter: 3, PeriodBefore: 10, PeriodAfter: 10}
	s := rep.String()
	if !strings.Contains(s, "5 -> 3") {
		t.Errorf("report string: %s", s)
	}
}

func TestCostSummary(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("A", 0, 1)
	b := g.AddVertex("B", 1, 1)
	g.AddEdge(a, b, 0, IPCEdge, "stat")
	g.AddEdge(a, b, 0, IPCEdge, "dyn")
	g.AddEdge(b, a, 1, SyncEdge, "ack:dyn")
	cost := Cost(g, map[string]Protocol{"dyn": UBS})
	if cost.IPCEdges != 2 || cost.SyncEdges != 1 {
		t.Errorf("edge counts: %+v", cost)
	}
	// stat: BBS 2 ops, dyn: UBS 4 ops, ack sync: 2 ops => 8.
	if cost.SharedMemoryOps != 8 {
		t.Errorf("SharedMemoryOps = %d, want 8", cost.SharedMemoryOps)
	}
	// stat: 1 msg, dyn: 2 msgs (data+ack), sync edge: 1 msg => 4.
	if cost.Messages != 4 {
		t.Errorf("Messages = %d, want 4", cost.Messages)
	}
}

func TestProtocolString(t *testing.T) {
	if BBS.String() != "SPI_BBS" || UBS.String() != "SPI_UBS" {
		t.Errorf("protocol strings: %s %s", BBS, UBS)
	}
}

func TestMessagesPerTransfer(t *testing.T) {
	if MessagesPerTransfer(BBS) != 1 || MessagesPerTransfer(UBS) != 2 {
		t.Error("MessagesPerTransfer wrong")
	}
}
