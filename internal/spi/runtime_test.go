package spi

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestInitValidation(t *testing.T) {
	rt := NewRuntime()
	cases := []EdgeConfig{
		{ID: 1, Mode: Static, PayloadBytes: 0, Protocol: UBS},
		{ID: 2, Mode: Dynamic, MaxBytes: 0, Protocol: UBS},
		{ID: 3, Mode: Static, PayloadBytes: 4, Protocol: BBS, Capacity: 0},
		{ID: 4, Mode: Mode(9), PayloadBytes: 4, Protocol: UBS},
	}
	for _, c := range cases {
		if _, _, err := rt.Init(c); err == nil {
			t.Errorf("config %+v should fail", c)
		}
	}
}

func TestInitDuplicateEdge(t *testing.T) {
	rt := NewRuntime()
	cfg := EdgeConfig{ID: 1, Mode: Static, PayloadBytes: 4, Protocol: UBS}
	if _, _, err := rt.Init(cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Init(cfg); err == nil {
		t.Error("duplicate edge ID should fail")
	}
}

// TestScatterGatherPipeline: one dynamic edge out to each of n workers and
// one back, the workers running concurrently; every worker's result comes
// back on its own edge.
func TestScatterGatherPipeline(t *testing.T) {
	rt := NewRuntime()
	const n = 4
	scatter, gather := make([]*Sender, n), make([]*Receiver, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tx, in, err := rt.Init(EdgeConfig{ID: EdgeID(i), Mode: Dynamic, MaxBytes: 64, Protocol: UBS})
		if err != nil {
			t.Fatal(err)
		}
		out, rx, err := rt.Init(EdgeConfig{ID: EdgeID(100 + i), Mode: Dynamic, MaxBytes: 64, Protocol: UBS})
		if err != nil {
			t.Fatal(err)
		}
		scatter[i], gather[i] = tx, rx
		// Workers double each byte of their input.
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := in.Receive()
			if err != nil {
				t.Errorf("worker %d recv: %v", i, err)
				return
			}
			for j := range p {
				p[j] *= 2
			}
			if err := out.Send(p); err != nil {
				t.Errorf("worker %d send: %v", i, err)
			}
		}()
	}
	payloads := [][]byte{{1}, {2, 2}, {3, 3, 3}, {4}}
	for i, p := range payloads {
		if err := scatter[i].Send(p); err != nil {
			t.Fatal(err)
		}
	}
	want := [][]byte{{2}, {4, 4}, {6, 6, 6}, {8}}
	for i, rx := range gather {
		if got, err := rx.Receive(); err != nil || !bytes.Equal(got, want[i]) {
			t.Errorf("worker %d result %v (%v), want %v", i, got, err, want[i])
		}
	}
	wg.Wait()
}

// TestScatterEdgeIDCollision: a gather fan-in whose edge IDs overlap the
// scatter fan-out's range is refused at the first colliding ID.
func TestScatterEdgeIDCollision(t *testing.T) {
	rt := NewRuntime()
	for i := 0; i < 2; i++ {
		if _, _, err := rt.Init(EdgeConfig{ID: EdgeID(i), Mode: Dynamic, MaxBytes: 16, Protocol: UBS}); err != nil {
			t.Fatal(err)
		}
	}
	// The gather range starts at 1, inside the scatter range 0..1.
	if _, _, err := rt.Init(EdgeConfig{ID: 1, Mode: Dynamic, MaxBytes: 16, Protocol: UBS}); err == nil {
		t.Error("edge ID collision should fail")
	}
	if _, _, err := rt.Init(EdgeConfig{ID: 2, Mode: Dynamic, MaxBytes: 16, Protocol: UBS}); err != nil {
		t.Errorf("edge past the scatter range: %v", err)
	}
}

func TestStaticSendReceive(t *testing.T) {
	rt := NewRuntime()
	tx, rx, err := rt.Init(EdgeConfig{ID: 5, Mode: Static, PayloadBytes: 4, Protocol: UBS})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4}
	if err := tx.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := rx.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestStaticSizeEnforced(t *testing.T) {
	rt := NewRuntime()
	tx, _, _ := rt.Init(EdgeConfig{ID: 1, Mode: Static, PayloadBytes: 4, Protocol: UBS})
	if err := tx.Send([]byte{1, 2}); err == nil {
		t.Error("wrong static size should fail")
	}
}

func TestDynamicBoundEnforced(t *testing.T) {
	rt := NewRuntime()
	tx, rx, _ := rt.Init(EdgeConfig{ID: 1, Mode: Dynamic, MaxBytes: 8, Protocol: UBS})
	if err := tx.Send(make([]byte, 9)); err == nil {
		t.Error("payload beyond b_max should fail")
	}
	// Variable sizes under the bound all work.
	for _, n := range []int{0, 1, 8} {
		if err := tx.Send(make([]byte, n)); err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		got, err := rx.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Errorf("received %d bytes, want %d", len(got), n)
		}
	}
}

func TestBBSBackpressure(t *testing.T) {
	rt := NewRuntime()
	tx, rx, _ := rt.Init(EdgeConfig{ID: 1, Mode: Static, PayloadBytes: 1, Protocol: BBS, Capacity: 2})
	// Fill the buffer.
	tx.Send([]byte{1})
	tx.Send([]byte{2})
	// Third send must block until a receive frees a slot.
	done := make(chan struct{})
	go func() {
		tx.Send([]byte{3})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("send did not block on full BBS buffer")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := rx.Receive(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("send did not resume after receive")
	}
}

func TestUBSNeverBlocksAndAcks(t *testing.T) {
	rt := NewRuntime()
	tx, rx, _ := rt.Init(EdgeConfig{ID: 1, Mode: Static, PayloadBytes: 1, Protocol: UBS})
	for i := 0; i < 100; i++ {
		if err := tx.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if outstanding(tx) != 100 {
		t.Errorf("outstanding = %d, want 100", outstanding(tx))
	}
	for i := 0; i < 40; i++ {
		rx.Receive()
	}
	if outstanding(tx) != 60 {
		t.Errorf("outstanding = %d, want 60", outstanding(tx))
	}
	st, _ := rt.Stats(1)
	if st.Acks != 40 {
		t.Errorf("acks = %d, want 40", st.Acks)
	}
	if st.MaxQueued != 100 {
		t.Errorf("MaxQueued = %d, want 100", st.MaxQueued)
	}
}

func TestCloseUnblocksEverybody(t *testing.T) {
	rt := NewRuntime()
	tx, rx, _ := rt.Init(EdgeConfig{ID: 1, Mode: Static, PayloadBytes: 1, Protocol: BBS, Capacity: 1})
	tx.Send([]byte{1})
	var wg sync.WaitGroup
	wg.Add(2)
	var sendErr, recvErr error
	go func() {
		defer wg.Done()
		sendErr = tx.Send([]byte{2}) // blocks: buffer full
	}()
	go func() {
		defer wg.Done()
		rx.Receive()              // consumes the first message
		_, recvErr = rx.Receive() // blocks: empty... unless send lands first
		if recvErr == nil {
			_, recvErr = rx.Receive() // then this one blocks
		}
	}()
	time.Sleep(20 * time.Millisecond)
	tx.Close()
	wg.Wait()
	if sendErr != nil && !errors.Is(sendErr, ErrClosed) {
		t.Errorf("send err = %v", sendErr)
	}
	if !errors.Is(recvErr, ErrClosed) {
		t.Errorf("recv err = %v, want ErrClosed", recvErr)
	}
}

func TestStatsAccounting(t *testing.T) {
	rt := NewRuntime()
	tx, _, _ := rt.Init(EdgeConfig{ID: 1, Mode: Dynamic, MaxBytes: 100, Protocol: UBS})
	tx.Send(make([]byte, 10))
	tx.Send(make([]byte, 20))
	st, ok := rt.Stats(1)
	if !ok {
		t.Fatal("edge stats missing")
	}
	if st.Messages != 2 || st.PayloadBytes != 30 {
		t.Errorf("stats = %+v", st)
	}
	if st.WireBytes != 30+2*DynamicHeaderBytes {
		t.Errorf("wire bytes = %d, want %d", st.WireBytes, 30+2*DynamicHeaderBytes)
	}
	if _, ok := rt.Stats(99); ok {
		t.Error("unknown edge should report !ok")
	}
	total := rt.TotalStats()
	if total.Messages != 2 {
		t.Errorf("total = %+v", total)
	}
}

func TestConcurrentProducerConsumer(t *testing.T) {
	rt := NewRuntime()
	tx, rx, _ := rt.Init(EdgeConfig{ID: 1, Mode: Static, PayloadBytes: 8, Protocol: BBS, Capacity: 4})
	const n = 1000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		for i := 0; i < n; i++ {
			buf[0] = byte(i)
			if err := tx.Send(buf); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
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
	st, _ := rt.Stats(1)
	if st.MaxQueued > 4 {
		t.Errorf("BBS MaxQueued %d exceeds capacity", st.MaxQueued)
	}
}
