package platform

import (
	"sort"
	"strings"
	"testing"
)

// twoPE builds a 2-PE sim with one channel 0->1 using the given spec
// overrides.
func twoPE(t *testing.T, spec ChannelSpec) (*Sim, ChannelID) {
	t.Helper()
	cfg := DefaultConfig(2)
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec.From, spec.To = 0, 1
	if spec.Name == "" {
		spec.Name = "ch"
	}
	ch, err := sim.AddChannel(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sim, ch
}

func TestNewSimValidation(t *testing.T) {
	if _, err := NewSim(Config{NumPEs: 0, CyclesPerByteDen: 1}); err == nil {
		t.Error("0 PEs should fail")
	}
	if _, err := NewSim(Config{NumPEs: 1, CyclesPerByteDen: 0}); err == nil {
		t.Error("zero denominator should fail")
	}
}

func TestAddChannelValidation(t *testing.T) {
	sim, _ := NewSim(DefaultConfig(2))
	if _, err := sim.AddChannel(ChannelSpec{From: 0, To: 5}); err == nil {
		t.Error("out-of-range endpoint should fail")
	}
	if _, err := sim.AddChannel(ChannelSpec{From: 1, To: 1}); err == nil {
		t.Error("self-loop should fail")
	}
	if _, err := sim.AddChannel(ChannelSpec{From: 0, To: 1, Capacity: -1}); err == nil {
		t.Error("negative capacity should fail")
	}
}

func TestSetProgramValidation(t *testing.T) {
	sim, ch := twoPE(t, ChannelSpec{})
	if err := sim.SetProgram(5, nil); err == nil {
		t.Error("bad PE index should fail")
	}
	if err := sim.SetProgram(1, Program{Send(ch, 4)}); err == nil {
		t.Error("PE 1 sending on 0->1 channel should fail")
	}
	if err := sim.SetProgram(0, Program{Recv(ch)}); err == nil {
		t.Error("PE 0 receiving on 0->1 channel should fail")
	}
	if err := sim.SetProgram(0, Program{Compute(-1)}); err == nil {
		t.Error("negative compute should fail")
	}
	if err := sim.SetProgram(0, Program{{Kind: OpKind(9)}}); err == nil {
		t.Error("unknown op should fail")
	}
	if err := sim.SetProgram(0, Program{Send(ChannelID(9), 4)}); err == nil {
		t.Error("unknown channel should fail")
	}
}

func TestComputeOnlyTiming(t *testing.T) {
	sim, _ := NewSim(DefaultConfig(1))
	if err := sim.SetProgram(0, Program{Compute(100)}); err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Finish != 300 {
		t.Errorf("finish = %d, want 300", st.Finish)
	}
	if st.PEBusy[0] != 300 {
		t.Errorf("busy = %d, want 300", st.PEBusy[0])
	}
	if st.IterationFinish[1] != 200 {
		t.Errorf("iteration finishes = %v", st.IterationFinish)
	}
}

func TestSendRecvTiming(t *testing.T) {
	// cfg: sendOverhead=2, recvOverhead=2, latency=4, 4 bytes/cycle.
	sim, ch := twoPE(t, ChannelSpec{HeaderBytes: 2})
	if err := sim.SetProgram(0, Program{Send(ch, 6)}); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetProgram(1, Program{Recv(ch)}); err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	// send cost = 2 + ceil(8/4) = 4; arrive = 4+4 = 8; recv done = 8+2 = 10.
	if st.Finish != 10 {
		t.Errorf("finish = %d, want 10", st.Finish)
	}
	if st.Messages[DataMsg] != 1 || st.Bytes[DataMsg] != 8 {
		t.Errorf("data traffic = %d msgs %d bytes, want 1/8", st.Messages[DataMsg], st.Bytes[DataMsg])
	}
}

func TestReceiverBlocksUntilArrival(t *testing.T) {
	sim, ch := twoPE(t, ChannelSpec{})
	sim.SetProgram(0, Program{Compute(1000), Send(ch, 4)})
	sim.SetProgram(1, Program{Recv(ch), Compute(10)})
	st, err := sim.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	// PE1 cannot finish before PE0's compute + send path.
	if st.Finish < 1000 {
		t.Errorf("finish = %d, want >= 1000", st.Finish)
	}
}

func TestBBSBackpressureThrottlesSender(t *testing.T) {
	// Capacity-1 channel: the sender must wait for each consume.
	sim, ch := twoPE(t, ChannelSpec{Capacity: 1})
	sim.SetProgram(0, Program{Send(ch, 4)})
	sim.SetProgram(1, Program{Recv(ch), Compute(1000)})
	st, err := sim.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	// Sender iteration k waits for consume k-1, which happens after the
	// receiver's 1000-cycle compute; total >= ~3000.
	if st.Finish < 3000 {
		t.Errorf("finish = %d, want >= 3000 (back-pressure)", st.Finish)
	}
	if st.MaxQueued[ch] > 1 {
		t.Errorf("MaxQueued = %d exceeds capacity 1", st.MaxQueued[ch])
	}
}

func TestUBSDoesNotThrottleSender(t *testing.T) {
	sim, ch := twoPE(t, ChannelSpec{Capacity: 0})
	sim.SetProgram(0, Program{Send(ch, 4)})
	sim.SetProgram(1, Program{Recv(ch), Compute(1000)})
	st, err := sim.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	// Sender finishes quickly; receiver dominates: ~3000 + overheads, but
	// the queue grows to 2+ because the sender runs ahead.
	if st.MaxQueued[ch] < 2 {
		t.Errorf("MaxQueued = %d, want >= 2 (sender runs ahead)", st.MaxQueued[ch])
	}
}

func TestUBSAckTraffic(t *testing.T) {
	sim, ch := twoPE(t, ChannelSpec{AckBytes: 4, HeaderBytes: 2})
	sim.SetProgram(0, Program{Send(ch, 16)})
	sim.SetProgram(1, Program{Recv(ch)})
	st, err := sim.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages[AckMsg] != 5 {
		t.Errorf("ack messages = %d, want 5", st.Messages[AckMsg])
	}
	if st.Bytes[AckMsg] != 5*6 {
		t.Errorf("ack bytes = %d, want 30", st.Bytes[AckMsg])
	}
}

func TestDynamicSendSizes(t *testing.T) {
	sim, ch := twoPE(t, ChannelSpec{})
	sizes := []int{10, 0, 30}
	sim.SetProgram(0, Program{SendFn(ch, func(iter int) int { return sizes[iter] })})
	sim.SetProgram(1, Program{Recv(ch)})
	st, err := sim.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes[DataMsg] != 40 {
		t.Errorf("data bytes = %d, want 40", st.Bytes[DataMsg])
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Two PEs each waiting to receive from the other before sending.
	cfg := DefaultConfig(2)
	sim, _ := NewSim(cfg)
	ab, _ := sim.AddChannel(ChannelSpec{From: 0, To: 1, Name: "ab"})
	ba, _ := sim.AddChannel(ChannelSpec{From: 1, To: 0, Name: "ba"})
	sim.SetProgram(0, Program{Recv(ba), Send(ab, 4)})
	sim.SetProgram(1, Program{Recv(ab), Send(ba, 4)})
	_, err := sim.Run(1)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestRunValidation(t *testing.T) {
	sim, _ := NewSim(DefaultConfig(1))
	if _, err := sim.Run(0); err == nil {
		t.Error("0 iterations should fail")
	}
}

func TestPipelineParallelismBeatsSerial(t *testing.T) {
	// Producer computes then sends; consumer receives then computes.
	// Over many iterations the pipeline overlaps the two stages.
	sim, ch := twoPE(t, ChannelSpec{})
	sim.SetProgram(0, Program{Compute(100), Send(ch, 4)})
	sim.SetProgram(1, Program{Recv(ch), Compute(100)})
	st, err := sim.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	serial := Time(20 * 200)
	if st.Finish >= serial {
		t.Errorf("finish = %d, want < serial %d (pipelining)", st.Finish, serial)
	}
}

func TestIterationFinishMonotone(t *testing.T) {
	sim, ch := twoPE(t, ChannelSpec{})
	sim.SetProgram(0, Program{Compute(10), Send(ch, 4)})
	sim.SetProgram(1, Program{Recv(ch), Compute(5)})
	st, err := sim.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(st.IterationFinish); k++ {
		if st.IterationFinish[k] < st.IterationFinish[k-1] {
			t.Fatalf("iteration finish not monotone: %v", st.IterationFinish)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	cfg := DefaultConfig(1)
	st := &Stats{}
	st.Messages[DataMsg] = 2
	st.Messages[AckMsg] = 1
	st.Bytes[DataMsg] = 100
	st.Bytes[AckMsg] = 8
	if st.TotalMessages() != 3 || st.TotalBytes() != 108 {
		t.Errorf("totals: %d msgs %d bytes", st.TotalMessages(), st.TotalBytes())
	}
	// 100 cycles at 100 MHz = 1 µs.
	if us := st.Microseconds(cfg, 100); us < 0.999 || us > 1.001 {
		t.Errorf("Microseconds = %v, want 1", us)
	}
}

func TestMsgKindString(t *testing.T) {
	for k, want := range map[MsgKind]string{DataMsg: "data", AckMsg: "ack", SyncMsg: "sync", CtrlMsg: "ctrl"} {
		if k.String() != want {
			t.Errorf("%d.String() = %s, want %s", k, k.String(), want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *Sim {
		cfg := DefaultConfig(3)
		sim, _ := NewSim(cfg)
		a, _ := sim.AddChannel(ChannelSpec{From: 0, To: 1, Name: "a"})
		b, _ := sim.AddChannel(ChannelSpec{From: 1, To: 2, Name: "b", Capacity: 2})
		c, _ := sim.AddChannel(ChannelSpec{From: 2, To: 0, Name: "c", AckBytes: 4})
		sim.SetProgram(0, Program{Compute(13), Send(a, 8), Recv(c)})
		sim.SetProgram(1, Program{Recv(a), Compute(29), Send(b, 12)})
		sim.SetProgram(2, Program{Recv(b), Compute(7), Send(c, 16)})
		return sim
	}
	s1, err := build().Run(50)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := build().Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Finish != s2.Finish || s1.TotalBytes() != s2.TotalBytes() {
		t.Errorf("non-deterministic: %v vs %v", s1.Finish, s2.Finish)
	}
}

func TestChannelPreload(t *testing.T) {
	// A preloaded channel lets the receiver start before any send: the
	// classic initial-token (delay) semantics.
	sim, err := NewSim(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sim.AddChannel(ChannelSpec{From: 0, To: 1, Name: "d", Preload: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver consumes 3 messages; sender supplies only 1 per iteration.
	sim.SetProgram(0, Program{Compute(100), Send(ch, 4)})
	sim.SetProgram(1, Program{Recv(ch), Compute(10)})
	sim.EnableTrace()
	st, err := sim.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	// The first two receives are satisfied by the preload at time 0, long
	// before the sender's 100-cycle compute finishes.
	var recvs []Segment
	for _, s := range sim.LastTrace().Segments {
		if s.PE == 1 && s.Kind == SegRecv {
			recvs = append(recvs, s)
		}
	}
	sort.Slice(recvs, func(i, j int) bool { return recvs[i].Start < recvs[j].Start })
	if len(recvs) != 3 {
		t.Fatalf("recv segments = %d", len(recvs))
	}
	if recvs[0].Start != 0 || recvs[1].Start >= 100 {
		t.Errorf("preloaded receives start at %d and %d, want before the first send",
			recvs[0].Start, recvs[1].Start)
	}
	// Preloaded messages are not counted as traffic.
	if st.Messages[DataMsg] != 3 {
		t.Errorf("data messages = %d, want 3 (sends only)", st.Messages[DataMsg])
	}
}

func TestPreloadValidation(t *testing.T) {
	sim, _ := NewSim(DefaultConfig(2))
	if _, err := sim.AddChannel(ChannelSpec{From: 0, To: 1, Preload: -1}); err == nil {
		t.Error("negative preload should fail")
	}
	if _, err := sim.AddChannel(ChannelSpec{From: 0, To: 1, Capacity: 2, Preload: 3}); err == nil {
		t.Error("preload beyond capacity should fail")
	}
}

func TestPreloadConsumesBBSCapacity(t *testing.T) {
	sim, _ := NewSim(DefaultConfig(2))
	ch, err := sim.AddChannel(ChannelSpec{From: 0, To: 1, Name: "d", Capacity: 2, Preload: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The sender's first send must wait for a consume (buffer starts full).
	sim.SetProgram(0, Program{Send(ch, 4)})
	sim.SetProgram(1, Program{Compute(1000), Recv(ch)})
	st, err := sim.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Finish < 1000 {
		t.Errorf("finish %d: preloaded BBS buffer should block the sender until a consume", st.Finish)
	}
}
