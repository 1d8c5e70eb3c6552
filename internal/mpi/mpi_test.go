package mpi

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	env := Envelope{Tag: 7, Source: 1, Dest: 2, Datatype: Float32, Count: 3}
	payload := make([]byte, 12)
	payload[0] = 0xAA
	msg := Encode(env, payload)
	if len(msg) != HeaderBytes+12 {
		t.Fatalf("wire len = %d", len(msg))
	}
	got, p, err := Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got != env || !bytes.Equal(p, payload) {
		t.Errorf("decoded %+v %v", got, p)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(make([]byte, 10)); err == nil {
		t.Error("short message should fail")
	}
	// payload size mismatch
	msg := Encode(Envelope{Tag: 1, Datatype: Byte, Count: 4}, make([]byte, 4))
	if _, _, err := Decode(msg[:len(msg)-1]); err == nil {
		t.Error("truncated payload should fail")
	}
	// bad datatype
	bad := Encode(Envelope{Tag: 1, Datatype: Datatype(99), Count: 4}, make([]byte, 4))
	if _, _, err := Decode(bad); err == nil {
		t.Error("unknown datatype should fail")
	}
	// count/size disagreement
	bad2 := Encode(Envelope{Tag: 1, Datatype: Int32, Count: 2}, make([]byte, 4))
	if _, _, err := Decode(bad2); err == nil {
		t.Error("count mismatch should fail")
	}
}

func TestDatatypeSizes(t *testing.T) {
	for dt, want := range map[Datatype]int{Byte: 1, Int32: 4, Float32: 4, Float64: 8, Datatype(0): 0} {
		if dt.Size() != want {
			t.Errorf("%d.Size() = %d, want %d", dt, dt.Size(), want)
		}
	}
}

func TestHeaderLargerThanSPI(t *testing.T) {
	// The paper's core overhead claim.
	if HeaderBytes <= 6 {
		t.Error("MPI header should exceed SPI_dynamic's 6 bytes")
	}
}

func TestCommSendRecv(t *testing.T) {
	c, err := NewComm(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4}
	if err := c.Send(0, 2, 9, Byte, want); err != nil {
		t.Fatal(err)
	}
	env, got, err := c.Recv(0, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || env.Source != 0 || env.Dest != 2 || env.Tag != 9 {
		t.Errorf("env=%+v payload=%v", env, got)
	}
}

func TestCommValidation(t *testing.T) {
	if _, err := NewComm(0); err == nil {
		t.Error("size 0 should fail")
	}
	c, _ := NewComm(2)
	if err := c.Send(0, 5, 1, Byte, nil); err == nil {
		t.Error("bad rank should fail")
	}
	if err := c.Send(1, 1, 1, Byte, nil); err == nil {
		t.Error("self send should fail")
	}
	if err := c.Send(0, 1, 1, Datatype(42), nil); err == nil {
		t.Error("bad datatype should fail")
	}
	if err := c.Send(0, 1, 1, Int32, make([]byte, 3)); err == nil {
		t.Error("non-multiple payload should fail")
	}
}

func TestCommTagMatching(t *testing.T) {
	c, _ := NewComm(2)
	c.Send(0, 1, 1, Byte, []byte{1})
	c.Send(0, 1, 2, Byte, []byte{2})
	// Receive tag 2 first even though tag 1 was sent first.
	_, p2, err := c.Recv(0, 1, 2)
	if err != nil || p2[0] != 2 {
		t.Fatalf("tag 2: %v %v", p2, err)
	}
	_, p1, err := c.Recv(0, 1, 1)
	if err != nil || p1[0] != 1 {
		t.Fatalf("tag 1: %v %v", p1, err)
	}
}

func TestCommBlockingRecv(t *testing.T) {
	c, _ := NewComm(2)
	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	go func() {
		defer wg.Done()
		_, got, _ = c.Recv(0, 1, 5)
	}()
	c.Send(0, 1, 5, Byte, []byte{42})
	wg.Wait()
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("got %v", got)
	}
}

func TestStatsHandshakes(t *testing.T) {
	c, _ := NewComm(2)
	c.Send(0, 1, 1, Byte, make([]byte, 10)) // eager
	c.Send(0, 1, 1, Byte, make([]byte, EagerLimit+1))
	st := c.Stats()
	if st.Handshakes != 1 {
		t.Errorf("handshakes = %d, want 1", st.Handshakes)
	}
	wantBytes := int64(HeaderBytes+10) + int64(HeaderBytes+EagerLimit+1) + 2*HeaderBytes
	if st.WireBytes != wantBytes {
		t.Errorf("wire bytes = %d, want %d", st.WireBytes, wantBytes)
	}
}

func TestLinkOpsEagerVsRendezvous(t *testing.T) {
	sim, _ := platform.NewSim(platform.DefaultConfig(2))
	l, err := NewLink(sim, 0, 1, "mpi")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(l.SendOps(10)); got != 1 {
		t.Errorf("eager send ops = %d, want 1", got)
	}
	if got := len(l.SendOps(EagerLimit + 1)); got != 3 {
		t.Errorf("rendezvous send ops = %d, want 3", got)
	}
	if got := len(l.RecvOps(10)); got != 1 {
		t.Errorf("eager recv ops = %d, want 1", got)
	}
	if got := len(l.RecvOps(EagerLimit + 1)); got != 3 {
		t.Errorf("rendezvous recv ops = %d, want 3", got)
	}
}

func TestLinkSimulatedTransfer(t *testing.T) {
	sim, _ := platform.NewSim(platform.DefaultConfig(2))
	l, err := NewLink(sim, 0, 1, "mpi")
	if err != nil {
		t.Fatal(err)
	}
	size := EagerLimit + 100
	sim.SetProgram(0, platform.Program(l.SendOps(size)))
	sim.SetProgram(1, platform.Program(l.RecvOps(size)))
	st, err := sim.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages[platform.CtrlMsg] != 8 { // RTS+CTS per iteration
		t.Errorf("ctrl messages = %d, want 8", st.Messages[platform.CtrlMsg])
	}
	if st.Messages[platform.DataMsg] != 4 {
		t.Errorf("data messages = %d, want 4", st.Messages[platform.DataMsg])
	}
}

func TestWireOverhead(t *testing.T) {
	if WireOverhead(10) != HeaderBytes {
		t.Errorf("eager overhead = %d", WireOverhead(10))
	}
	if WireOverhead(EagerLimit+1) != 3*HeaderBytes {
		t.Errorf("rendezvous overhead = %d", WireOverhead(EagerLimit+1))
	}
}

// Property: wire roundtrip over random payload sizes per datatype.
func TestWireRoundtripProperty(t *testing.T) {
	f := func(tag uint32, count uint8) bool {
		payload := make([]byte, int(count)*4)
		env := Envelope{Tag: tag, Source: 0, Dest: 1, Datatype: Int32, Count: uint32(count)}
		got, p, err := Decode(Encode(env, payload))
		return err == nil && got == env && len(p) == len(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
