package spi

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// fakeLink records SendBuffer / SendAck traffic and can be wired to fail.
type fakeLink struct {
	mu    sync.Mutex
	data  [][]byte
	acks  []uint32
	edges []uint16
	fins  []uint16
	fail  error
}

func (f *fakeLink) SendBuffer(edge uint16, buf *[]byte) error {
	defer transport.Recycle(buf)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return f.fail
	}
	f.data = append(f.data, append([]byte(nil), message(buf)...))
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

// TestRemoteBBSSenderNeverBlocks: the analysis bounds a BBS edge, so a
// remote sender waits for no credit — every send returns at once, well past
// Capacity — and its receiver sends no acknowledgement back.
func TestRemoteBBSSenderNeverBlocks(t *testing.T) {
	cfg := EdgeConfig{ID: 2, Mode: Static, PayloadBytes: 4, Protocol: BBS, Capacity: 2}
	rtA, rtB := NewRuntime(), NewRuntime()
	tx, _, err := rtA.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rx, err := rtB.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	linkA, linkB := &fakeLink{}, &fakeLink{}
	if err := rtA.BindRemoteSender(2, linkA); err != nil {
		t.Fatal(err)
	}
	if err := rtB.BindRemoteReceiver(2, linkB); err != nil {
		t.Fatal(err)
	}
	const n = 10
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := tx.Send([]byte{1, 2, 3, byte(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a remote BBS sender blocked")
	}
	if len(linkA.data) != n {
		t.Fatalf("link carried %d messages, want %d", len(linkA.data), n)
	}
	for _, msg := range linkA.data[:cfg.Capacity] {
		rtB.DeliverData(2, msg)
		if _, err := rx.Receive(); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := rtA.Stats(2); st.CreditWaits != 0 {
		t.Errorf("credit waits = %d, want 0", st.CreditWaits)
	}
	if st, _ := rtB.Stats(2); len(linkB.acks) != 0 || st.Acks != 0 {
		t.Errorf("BBS receiver sent acks %v (stats %d), want none", linkB.acks, st.Acks)
	}
}

// TestRemoteBBSOverrunFails: a message that arrives with every BBS slot
// full fails the edge, and Receive returns an error naming the edge and
// its bound instead of a bare ErrClosed.
func TestRemoteBBSOverrunFails(t *testing.T) {
	cfg := EdgeConfig{ID: 2, Name: "sums", Mode: Static, PayloadBytes: 1, Protocol: BBS, Capacity: 2}
	rt := NewRuntime()
	_, rx, err := rt.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.BindRemoteReceiver(2, &fakeLink{}); err != nil {
		t.Fatal(err)
	}
	msg := AppendMessage(nil, Static, 2, []byte{7})
	rt.DeliverData(2, msg)
	rt.DeliverData(2, msg)
	if _, err := rx.Receive(); err != nil {
		t.Fatal(err)
	}
	rt.DeliverData(2, msg) // two queued again: at the bound, not past it
	rt.DeliverData(2, msg) // past it
	_, err = rx.Receive()
	if err == nil || errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "edge sums") || !strings.Contains(err.Error(), "all 2 BBS slots full") {
		t.Fatalf("receive after an overrun: %v, want the edge's bound error", err)
	}
	if _, again := rx.Receive(); again == nil || again.Error() != err.Error() {
		t.Fatalf("second receive: %v, want the same error", again)
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

// TestLinkHandlerOutlivesInit: a link's handler finds its edges without the
// runtime's lock, in the edge table as it stood when the handler was built.
// Inits racing with the link's reader — edges 3 to 5 land in the middle of
// the table, where an insert in place would shift edge 6 under the reader —
// must copy the table instead (the race detector watches), every ack must
// land on its edge, and an edge the link does not carry is dropped.
func TestLinkHandlerOutlivesInit(t *testing.T) {
	rt := NewRuntime()
	cfg := func(id EdgeID) EdgeConfig { return EdgeConfig{ID: id, Mode: Dynamic, MaxBytes: 8, Protocol: UBS} }
	for _, id := range []EdgeID{2, 6, 7} { // three edges: the table has room for a fourth
		if _, _, err := rt.Init(cfg(id)); err != nil {
			t.Fatal(err)
		}
	}
	h := newLinkHandler(rt, []transport.EdgeDecl{{ID: 2}, {ID: 6}, {ID: 7}}, 1, &peerFails{})
	done := make(chan error, 1)
	go func() {
		for id := EdgeID(3); id < 6; id++ {
			if _, _, err := rt.Init(cfg(id)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 1000; i++ {
		h.HandleAck(6, 1)
		h.HandleAck(2, 2)
		h.HandleAck(7, 3)
		h.HandleAck(9, 1)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for id, want := range map[EdgeID]int64{2: 2000, 6: 1000, 7: 3000, 3: 0} {
		if got := rt.edge(id).ackedMsgs.Load(); got != want {
			t.Errorf("edge %d credited %d acks, want %d", id, got, want)
		}
	}
}
