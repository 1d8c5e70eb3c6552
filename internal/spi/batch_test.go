package spi

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestSendBatchReceiveBatch(t *testing.T) {
	rt := NewRuntime()
	tx, rx, err := rt.Init(EdgeConfig{ID: 1, Mode: Dynamic, MaxBytes: 16, Protocol: UBS})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		{1},
		{2, 2},
		{},
		{4, 4, 4, 4},
	}
	if err := tx.SendBatch(payloads); err != nil {
		t.Fatal(err)
	}
	for i := range payloads {
		got, err := rx.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Errorf("message %d = %v, want %v", i, got, payloads[i])
		}
	}
	st, _ := rt.Stats(1)
	if st.Messages != int64(len(payloads)) {
		t.Errorf("messages = %d, want %d", st.Messages, len(payloads))
	}
	if st.Acks != int64(len(payloads)) {
		t.Errorf("acks = %d, want %d (UBS batch still acks per message logically)", st.Acks, len(payloads))
	}
	if n := outstanding(tx); n != 0 {
		t.Errorf("outstanding = %d after full drain", n)
	}
}

// TestSendBatchBBSDrains sends a burst larger than the BBS capacity: the
// batch must block per message on credit and complete once a consumer
// drains, preserving order.
func TestSendBatchBBSDrains(t *testing.T) {
	rt := NewRuntime()
	tx, rx, _ := rt.Init(EdgeConfig{ID: 1, Mode: Static, PayloadBytes: 1, Protocol: BBS, Capacity: 2})
	const n = 20
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var sendErr error
	go func() {
		defer wg.Done()
		sendErr = tx.SendBatch(payloads)
	}()
	for i := 0; i < n; i++ {
		p, err := rx.Receive()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if p[0] != byte(i) {
			t.Fatalf("out of order at %d: got %d", i, p[0])
		}
	}
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	st, _ := rt.Stats(1)
	if st.MaxQueued > 2 {
		t.Errorf("BBS MaxQueued %d exceeds capacity during batch", st.MaxQueued)
	}
}

func TestSendBatchClosedEdge(t *testing.T) {
	rt := NewRuntime()
	tx, _, _ := rt.Init(EdgeConfig{ID: 1, Mode: Static, PayloadBytes: 1, Protocol: UBS})
	tx.Close()
	if err := tx.SendBatch([][]byte{{1}, {2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendBatch on closed edge = %v, want ErrClosed", err)
	}
}

func TestSendBatchValidatesEachPayload(t *testing.T) {
	rt := NewRuntime()
	tx, _, _ := rt.Init(EdgeConfig{ID: 1, Mode: Static, PayloadBytes: 2, Protocol: UBS})
	err := tx.SendBatch([][]byte{{1, 1}, {2}, {3, 3}})
	if err == nil {
		t.Fatal("batch with a wrong-size static payload should fail")
	}
	// Validation is all-or-nothing and runs before any message moves, so
	// the valid prefix was NOT delivered.
	if st, _ := rt.Stats(1); st.Messages != 0 {
		t.Fatalf("%d messages sent by a rejected batch, want none", st.Messages)
	}
}

func TestReceiveIntoReusesBuffer(t *testing.T) {
	rt := NewRuntime()
	tx, rx, _ := rt.Init(EdgeConfig{ID: 1, Mode: Static, PayloadBytes: 8, Protocol: UBS})
	buf := make([]byte, 0, 8)
	for i := 0; i < 5; i++ {
		msg := []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}
		if err := tx.Send(msg); err != nil {
			t.Fatal(err)
		}
		p, err := rx.ReceiveInto(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, msg) {
			t.Fatalf("round %d: got %v", i, p)
		}
		if cap(buf) >= 8 && &p[0] != &buf[:1][0] {
			t.Fatalf("round %d: payload not written into the supplied buffer", i)
		}
		buf = p
	}
}

// BenchmarkSendReceiveInto measures the steady-state local hot path:
// pooled encode on Send, caller-supplied buffer on receive. With the
// sync.Pool arena this is allocation-free per message (run with
// -benchmem).
func BenchmarkSendReceiveInto(b *testing.B) {
	rt := NewRuntime()
	tx, rx, _ := rt.Init(EdgeConfig{ID: 1, Mode: Static, PayloadBytes: 64, Protocol: BBS, Capacity: 8})
	payload := make([]byte, 64)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Send(payload); err != nil {
			b.Fatal(err)
		}
		p, err := rx.ReceiveInto(buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = p[:0]
	}
}

// outstanding is a sender's unacknowledged window as the watchdog reads it:
// the lock-free sent and acked mirrors.
func outstanding(s *Sender) int64 { return s.e.sentMsgs.Load() - s.e.ackedMsgs.Load() }
