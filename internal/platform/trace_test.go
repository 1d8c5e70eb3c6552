package platform

import (
	"strings"
	"testing"
)

func tracedPipeline(t *testing.T) *Sim {
	t.Helper()
	sim, err := NewSim(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sim.AddChannel(ChannelSpec{From: 0, To: 1, Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetProgram(0, Program{Compute(50), Send(ch, 16)})
	sim.SetProgram(1, Program{Recv(ch), Compute(30)})
	sim.EnableTrace()
	return sim
}

func TestTraceRecordsSegments(t *testing.T) {
	sim := tracedPipeline(t)
	st, err := sim.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	tr := sim.LastTrace()
	if tr == nil {
		t.Fatal("trace missing")
	}
	// Per iteration: compute+send on PE0, recv+compute on PE1 => 12 total.
	if len(tr.Segments) != 12 {
		t.Fatalf("segments = %d, want 12", len(tr.Segments))
	}
	kinds := map[SegmentKind]int{}
	busy := map[int]Time{}
	for _, s := range tr.Segments {
		if s.End < s.Start {
			t.Errorf("segment ends before it starts: %+v", s)
		}
		kinds[s.Kind]++
		busy[s.PE] += s.End - s.Start
	}
	if kinds[SegCompute] != 6 || kinds[SegSend] != 3 || kinds[SegRecv] != 3 {
		t.Errorf("kind counts = %v", kinds)
	}
	// Trace busy time matches stats busy time.
	for pe := 0; pe < 2; pe++ {
		if busy[pe] != st.PEBusy[pe] {
			t.Errorf("PE%d trace busy %d != stats busy %d", pe, busy[pe], st.PEBusy[pe])
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	sim, _ := NewSim(DefaultConfig(1))
	sim.SetProgram(0, Program{Compute(5)})
	if _, err := sim.Run(1); err != nil {
		t.Fatal(err)
	}
	if sim.LastTrace() != nil {
		t.Error("trace should be nil when disabled")
	}
}

func TestGanttRendering(t *testing.T) {
	sim := tracedPipeline(t)
	if _, err := sim.Run(4); err != nil {
		t.Fatal(err)
	}
	gantt := sim.LastTrace().Gantt(2, 60)
	if !strings.Contains(gantt, "PE0") || !strings.Contains(gantt, "PE1") {
		t.Errorf("gantt missing PE rows:\n%s", gantt)
	}
	for _, mark := range []string{"#", ">", "<"} {
		if !strings.Contains(gantt, mark) {
			t.Errorf("gantt missing %q marks:\n%s", mark, gantt)
		}
	}
	lines := strings.Split(strings.TrimRight(gantt, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("gantt lines = %d, want header + 2 rows", len(lines))
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	tr := &Trace{}
	if got := tr.Gantt(1, 40); !strings.Contains(got, "empty") {
		t.Errorf("empty gantt = %q", got)
	}
}

func TestSegmentKindString(t *testing.T) {
	if SegCompute.String() != "compute" || SegSend.String() != "send" || SegRecv.String() != "recv" {
		t.Error("segment kind strings")
	}
	if !strings.Contains(SegmentKind(7).String(), "7") {
		t.Error("unknown segment kind")
	}
}

func TestTraceIterationsLabeled(t *testing.T) {
	sim := tracedPipeline(t)
	if _, err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
	iters := map[int]bool{}
	for _, s := range sim.LastTrace().Segments {
		iters[s.Iter] = true
	}
	for k := 0; k < 3; k++ {
		if !iters[k] {
			t.Errorf("iteration %d missing from trace", k)
		}
	}
}
