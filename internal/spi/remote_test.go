package spi

import (
	"errors"
	"sync"
	"testing"
)

// fakeLink records SendData / SendAck traffic and can be wired to fail.
type fakeLink struct {
	mu    sync.Mutex
	data  [][]byte
	acks  []uint32
	edges []uint16
	fins  []uint16
	fail  error
}

func (f *fakeLink) SendData(edge uint16, msg []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return f.fail
	}
	cp := make([]byte, len(msg))
	copy(cp, msg)
	f.data = append(f.data, cp)
	f.edges = append(f.edges, edge)
	return nil
}

func (f *fakeLink) SendAck(edge uint16, count uint32) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return f.fail
	}
	f.acks = append(f.acks, count)
	return nil
}

func (f *fakeLink) SendFin(edge uint16) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return f.fail
	}
	f.fins = append(f.fins, edge)
	return nil
}

// TestRemoteSenderRoundTrip wires two runtimes together through fake links
// by hand: rtA's edge 5 sender transmits, and the wire message is injected
// into rtB via DeliverData.
func TestRemoteSenderRoundTrip(t *testing.T) {
	cfg := EdgeConfig{ID: 5, Mode: Dynamic, MaxBytes: 64, Protocol: UBS}
	rtA, rtB := NewRuntime(), NewRuntime()
	txA, _, err := rtA.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rxB, err := rtB.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	linkA, linkB := &fakeLink{}, &fakeLink{}
	if err := rtA.BindRemoteSender(5, linkA); err != nil {
		t.Fatal(err)
	}
	if err := rtB.BindRemoteReceiver(5, linkB); err != nil {
		t.Fatal(err)
	}

	if err := txA.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if len(linkA.data) != 1 || linkA.edges[0] != 5 {
		t.Fatalf("link captured %d messages (edges %v), want 1 on edge 5", len(linkA.data), linkA.edges)
	}
	// The wire message is the standard SPI encoding.
	id, payload, err := DecodeDynamic(linkA.data[0], 64)
	if err != nil || id != 5 || string(payload) != "hello" {
		t.Fatalf("wire message decodes to (%d, %q, %v)", id, payload, err)
	}

	rtB.DeliverData(5, linkA.data[0])
	got, err := rxB.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("received %q", got)
	}
	// Receiving on a remote-bound edge sends one ack over the link.
	if len(linkB.acks) != 1 || linkB.acks[0] != 1 {
		t.Fatalf("receiver acks = %v, want [1]", linkB.acks)
	}
	// And the sender's UBS bookkeeping advances once the ack is delivered.
	if out := outstanding(txA); out != 1 {
		t.Fatalf("outstanding before ack = %d", out)
	}
	rtA.DeliverAck(5, 1)
	if out := outstanding(txA); out != 0 {
		t.Fatalf("outstanding after ack = %d", out)
	}
}

// TestRemoteBBSWindow checks that a remote BBS sender blocks on the credit
// window and unblocks when DeliverAck returns credits.
func TestRemoteBBSWindow(t *testing.T) {
	cfg := EdgeConfig{ID: 2, Mode: Static, PayloadBytes: 4, Protocol: BBS, Capacity: 2}
	rt := NewRuntime()
	tx, _, err := rt.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	link := &fakeLink{}
	if err := rt.BindRemoteSender(2, link); err != nil {
		t.Fatal(err)
	}
	pay := []byte{1, 2, 3, 4}
	for i := 0; i < 2; i++ {
		if err := tx.Send(pay); err != nil {
			t.Fatal(err)
		}
	}
	// Window full: the third send must block until a credit arrives.
	done := make(chan error, 1)
	go func() { done <- tx.Send(pay) }()
	select {
	case err := <-done:
		t.Fatalf("send beyond window returned early: %v", err)
	default:
	}
	rt.DeliverAck(2, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(link.data) != 3 {
		t.Fatalf("link carried %d messages, want 3", len(link.data))
	}
}

// TestRemoteSendFailure checks that a dead link surfaces as a send error.
func TestRemoteSendFailure(t *testing.T) {
	cfg := EdgeConfig{ID: 3, Mode: Static, PayloadBytes: 1, Protocol: UBS}
	rt := NewRuntime()
	tx, _, err := rt.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	linkErr := errors.New("wire cut")
	if err := rt.BindRemoteSender(3, &fakeLink{fail: linkErr}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Send([]byte{9}); !errors.Is(err, linkErr) {
		t.Fatalf("send error = %v, want wrapped %v", err, linkErr)
	}
}

// TestRemoteBindValidation: unknown edges and double binds are rejected,
// and network input for unknown edges is dropped without panicking.
func TestRemoteBindValidation(t *testing.T) {
	rt := NewRuntime()
	link := &fakeLink{}
	if err := rt.BindRemoteSender(9, link); err == nil {
		t.Error("binding an unknown edge should fail")
	}
	if _, _, err := rt.Init(EdgeConfig{ID: 9, Mode: Static, PayloadBytes: 1, Protocol: UBS}); err != nil {
		t.Fatal(err)
	}
	if err := rt.BindRemoteSender(9, link); err != nil {
		t.Fatal(err)
	}
	if err := rt.BindRemoteSender(9, link); err == nil {
		t.Error("double bind should fail")
	}
	if err := rt.BindRemoteReceiver(9, link); err != nil {
		t.Fatal(err)
	}
	if err := rt.BindRemoteReceiver(9, link); err == nil {
		t.Error("double bind should fail")
	}
	// Unknown-edge network input is dropped, not a panic.
	rt.DeliverData(77, []byte{0, 0})
	rt.DeliverAck(77, 1)
}

// TestCloseEdgesDrainsQueueFirst: a closed remote edge still delivers its
// queued messages before reporting ErrClosed.
func TestCloseEdgesDrainsQueueFirst(t *testing.T) {
	cfg := EdgeConfig{ID: 4, Mode: Static, PayloadBytes: 2, Protocol: UBS}
	rt := NewRuntime()
	_, rx, err := rt.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.BindRemoteReceiver(4, &fakeLink{}); err != nil {
		t.Fatal(err)
	}
	msg := AppendMessage(nil, Static, 4, []byte{7, 8})
	rt.DeliverData(4, msg)
	rt.CloseEdge(4)
	got, err := rx.Receive()
	if err != nil || got[0] != 7 || got[1] != 8 {
		t.Fatalf("queued message after close: %v, %v", got, err)
	}
	if _, err := rx.Receive(); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained closed edge returns %v, want ErrClosed", err)
	}
}
