package transport

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// recordingHandler captures a link's inbound traffic for assertions.
type recordingHandler struct {
	mu     sync.Mutex
	data   map[uint16][][]byte
	acks   map[uint16]uint32
	fins   map[uint16]int
	closed chan error
}

func newRecordingHandler() *recordingHandler {
	return &recordingHandler{
		data:   map[uint16][][]byte{},
		acks:   map[uint16]uint32{},
		fins:   map[uint16]int{},
		closed: make(chan error, 1),
	}
}

func (h *recordingHandler) HandleData(edge uint16, msg []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := make([]byte, len(msg))
	copy(cp, msg)
	h.data[edge] = append(h.data[edge], cp)
}

func (h *recordingHandler) HandleAck(edge uint16, n uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.acks[edge] += n
}

func (h *recordingHandler) HandleFin(edge uint16) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fins[edge]++
}

func (h *recordingHandler) HandleLinkClose(err error) { h.closed <- err }

func (h *recordingHandler) waitData(t *testing.T, edge uint16, n int) [][]byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		msgs := h.data[edge]
		h.mu.Unlock()
		if len(msgs) >= n {
			return msgs
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("edge %d: timed out waiting for %d messages", edge, n)
	return nil
}

func (h *recordingHandler) waitAcks(t *testing.T, edge uint16, n uint32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		got := h.acks[edge]
		h.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("edge %d: timed out waiting for %d acks", edge, n)
}

// testManifest declares two edges: 7 outbound and 9 inbound from the
// dialer's perspective.
func testManifest(dialerSide bool) []EdgeDecl {
	return []EdgeDecl{
		{ID: 7, Mode: 1, Out: dialerSide, Bytes: 1024, Protocol: 1},
		{ID: 9, Mode: 0, Out: !dialerSide, Bytes: 16, Protocol: 0, Capacity: 4},
	}
}

// tunedPair connects a dialer and an acceptor over tr at addr, each with
// its own LinkConfig: the tuners (nil for none) adjust the two sides
// independently, manifest included — the acceptor's lookup answers with
// its tuned cfg.Edges. It returns each side's link or handshake error.
func tunedPair(t *testing.T, tr Transport, addr string, hd, ha Handler, tuneD, tuneA func(*LinkConfig)) (d, a *Link, derr, aerr error) {
	t.Helper()
	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		c, err := ln.Accept()
		if err != nil {
			aerr = err
			return
		}
		cfg := LinkConfig{Node: 1, Edges: testManifest(false)}
		if tuneA != nil {
			tuneA(&cfg)
		}
		a, aerr = AcceptLink(c, cfg, func(peer int) ([]EdgeDecl, Handler, error) {
			if peer != 0 {
				return nil, nil, fmt.Errorf("unexpected peer %d", peer)
			}
			return cfg.Edges, ha, nil
		})
	}()
	c, err := DialRetry(context.Background(), tr, ln.Addr(), RetryConfig{Attempts: 20, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cfg := LinkConfig{Node: 0, Edges: testManifest(true)}
	if tuneD != nil {
		tuneD(&cfg)
	}
	d, derr = NewLink(c, cfg, hd)
	<-accepted
	return d, a, derr, aerr
}

// linkPair is tunedPair with both sides at their defaults, for handshakes
// that must succeed.
func linkPair(t *testing.T, tr Transport, addr string, hd, ha Handler) (*Link, *Link) {
	t.Helper()
	return batchLinkPair(t, tr, addr, nil, nil, hd, ha)
}

func transports(t *testing.T) map[string]Transport {
	return map[string]Transport{
		"loopback": NewLoopback(),
		"tcp":      &TCP{},
		"shm":      NewShm(t.TempDir()),
	}
}

func testAddr(name string) string {
	if name == "tcp" {
		return "127.0.0.1:0"
	}
	return "node1"
}

func TestLinkRoundTrip(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			hd, ha := newRecordingHandler(), newRecordingHandler()
			dialer, acceptor := linkPair(t, tr, testAddr(name), hd, ha)

			if dialer.PeerNode() != 1 || acceptor.PeerNode() != 0 {
				t.Fatalf("peer nodes = %d, %d", dialer.PeerNode(), acceptor.PeerNode())
			}
			// Data dialer -> acceptor on edge 7, acks back.
			msg := []byte{7, 0, 4, 0, 0, 0, 1, 2, 3, 4} // dynamic header + payload
			for i := 0; i < 3; i++ {
				if err := dialer.SendData(7, msg); err != nil {
					t.Fatal(err)
				}
			}
			got := ha.waitData(t, 7, 3)
			if !bytes.Equal(got[0], msg) {
				t.Fatalf("received %x, want %x", got[0], msg)
			}
			if err := acceptor.SendAck(7, 3); err != nil {
				t.Fatal(err)
			}
			hd.waitAcks(t, 7, 3)

			// Data acceptor -> dialer on edge 9.
			back := []byte{9, 0, 0xaa, 0xbb}
			if err := acceptor.SendData(9, back); err != nil {
				t.Fatal(err)
			}
			if got := hd.waitData(t, 9, 1); !bytes.Equal(got[0], back) {
				t.Fatalf("received %x, want %x", got[0], back)
			}

			// Wrong-direction sends are rejected locally.
			if err := dialer.SendData(9, back); err == nil {
				t.Fatal("sending on an inbound edge should fail")
			}
			if err := dialer.SendAck(7, 1); err == nil {
				t.Fatal("acking an outbound edge should fail")
			}

			// Graceful shutdown: both sides see a nil close reason.
			done := make(chan struct{})
			go func() { acceptor.Close(); close(done) }()
			dialer.Close()
			<-done
			if err := <-hd.closed; err != nil {
				t.Fatalf("dialer close reason: %v", err)
			}
			if err := <-ha.closed; err != nil {
				t.Fatalf("acceptor close reason: %v", err)
			}

			st := dialer.Stats()
			// One ACK frame carried the batched count of 3.
			if st.DataSent != 3 || st.DataReceived != 1 || st.AcksReceived != 1 {
				t.Fatalf("dialer stats = %+v", st)
			}
		})
	}
}

func TestLinkStatsBytes(t *testing.T) {
	tr := NewLoopback()
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := linkPair(t, tr, "n", hd, ha)
	msg := []byte{7, 0, 1, 0, 0, 0, 0xff}
	if err := dialer.SendData(7, msg); err != nil {
		t.Fatal(err)
	}
	ha.waitData(t, 7, 1)
	st := dialer.Stats()
	if want := int64(frameHeaderBytes + len(msg)); st.BytesSent != want {
		t.Fatalf("bytes sent = %d, want %d", st.BytesSent, want)
	}
	closeBoth(dialer, acceptor)
}

// closeBoth closes two ends of a link concurrently: each side's Close
// waits for the peer's GOODBYE, so sequential closes would serialize on
// the close timeout.
func closeBoth(a, b *Link) {
	done := make(chan struct{})
	go func() { b.Close(); close(done) }()
	a.Close()
	<-done
}

func TestHandshakeManifestMismatch(t *testing.T) {
	cases := []struct {
		name string
		peer []EdgeDecl // acceptor-side manifest (dialer uses testManifest(true))
	}{
		{"missing edge", []EdgeDecl{{ID: 7, Mode: 1, Out: false, Bytes: 1024, Protocol: 1}}},
		{"same direction", []EdgeDecl{
			{ID: 7, Mode: 1, Out: true, Bytes: 1024, Protocol: 1},
			{ID: 9, Mode: 0, Out: true, Bytes: 16, Protocol: 0, Capacity: 4},
		}},
		{"different bound", []EdgeDecl{
			{ID: 7, Mode: 1, Out: false, Bytes: 512, Protocol: 1},
			{ID: 9, Mode: 0, Out: true, Bytes: 16, Protocol: 0, Capacity: 4},
		}},
		{"different protocol", []EdgeDecl{
			{ID: 7, Mode: 1, Out: false, Bytes: 1024, Protocol: 0, Capacity: 2},
			{ID: 9, Mode: 0, Out: true, Bytes: 16, Protocol: 0, Capacity: 4},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewLoopback()
			ln, err := tr.Listen("n")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			acceptErr := make(chan error, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					acceptErr <- err
					return
				}
				_, err = AcceptLink(c, LinkConfig{Node: 1}, func(int) ([]EdgeDecl, Handler, error) {
					return tc.peer, newRecordingHandler(), nil
				})
				acceptErr <- err
			}()
			c, err := tr.Dial("n")
			if err != nil {
				t.Fatal(err)
			}
			_, dialErr := NewLink(c, LinkConfig{Node: 0, Edges: testManifest(true)}, newRecordingHandler())
			if dialErr == nil && <-acceptErr == nil {
				t.Fatal("mismatched manifests should fail the handshake")
			}
			if dialErr != nil && IsTransient(dialErr) {
				t.Fatalf("handshake failure should be fatal, got transient: %v", dialErr)
			}
		})
	}
}

func TestSendTimeoutPoisonsLink(t *testing.T) {
	tr := NewLoopback()
	ln, err := tr.Listen("n")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peerReady := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		// Handshake manually (echoing the dialer's session token), then
		// stop reading: the link's writes must hit their deadline instead
		// of blocking forever.
		_, _, body, err := readFrame(c, DefaultMaxFrame)
		if err != nil {
			return
		}
		_, token, _, _, err := decodeHello(body)
		if err != nil {
			return
		}
		if err := writeFrame(c, frameHello, 0, encodeHello(1, token, testManifest(false), false)); err != nil {
			return
		}
		peerReady <- c
	}()
	c, err := tr.Dial("n")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLink(c, LinkConfig{
		Node: 0, Edges: testManifest(true),
		SendTimeout: 30 * time.Millisecond, CloseTimeout: 50 * time.Millisecond,
	}, newRecordingHandler())
	if err != nil {
		t.Fatal(err)
	}
	peer := <-peerReady
	defer peer.Close()

	msg := make([]byte, 4096)
	msg[0] = 7
	var sendErr error
	// The pipe is unbuffered, so the first unread frame blocks the writer.
	for i := 0; i < 64 && sendErr == nil; i++ {
		sendErr = l.SendData(7, msg)
	}
	if sendErr == nil {
		t.Fatal("send into a stalled peer should time out")
	}
	var te *Error
	if !asError(sendErr, &te) || !te.Timeout() {
		t.Fatalf("send error = %v, want timeout", sendErr)
	}
	// The stream may hold a partial frame now; the link must refuse to
	// send more.
	if err := l.SendData(7, msg); err == nil {
		t.Fatal("send after timeout should fail")
	}
	l.Close()
}

func asError(err error, target **Error) bool {
	for err != nil {
		if e, ok := err.(*Error); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestIdleTimeoutClosesLink(t *testing.T) {
	tr := NewLoopback()
	hd, ha := newRecordingHandler(), newRecordingHandler()
	ln, err := tr.Listen("n")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptCh := make(chan *Link, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		l, err := AcceptLink(c, LinkConfig{Node: 1}, func(int) ([]EdgeDecl, Handler, error) {
			return testManifest(false), ha, nil
		})
		if err != nil {
			return
		}
		acceptCh <- l
	}()
	c, err := tr.Dial("n")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLink(c, LinkConfig{
		Node: 0, Edges: testManifest(true), IdleTimeout: 20 * time.Millisecond,
	}, hd)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-hd.closed:
		if err == nil {
			t.Fatal("idle timeout should close with an error")
		}
		if !IsTransient(err) {
			t.Fatalf("idle timeout should classify transient, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle timeout never fired")
	}
	l.Close()
	if peer := <-acceptCh; peer != nil {
		peer.Close()
	}
}

func TestAbruptPeerDeathReportsError(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			hd, ha := newRecordingHandler(), newRecordingHandler()
			dialer, acceptor := linkPair(t, tr, testAddr(name), hd, ha)
			// Kill the acceptor's connection without a goodbye.
			acceptor.conn.Close()
			select {
			case err := <-hd.closed:
				if err == nil {
					t.Fatal("abrupt close should report an error")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("dialer never noticed the dead peer")
			}
			dialer.Close()
			acceptor.Close()
		})
	}
}

// TestCloseRacesSend drives concurrent Send traffic into a link while
// Close runs on both sides, plus a racing double-Close. Run under -race
// (make check does) this verifies the shutdown path holds its locking
// discipline: every send either delivers or fails with ErrLinkClosed, and
// nothing panics or deadlocks.
func TestCloseRacesSend(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			hd, ha := newRecordingHandler(), newRecordingHandler()
			dialer, acceptor := linkPair(t, tr, testAddr(name), hd, ha)
			msg := []byte{7, 0, 4, 0, 0, 0, 1, 2, 3, 4}
			var wg sync.WaitGroup
			start := make(chan struct{})
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for j := 0; j < 200; j++ {
						if err := dialer.SendData(7, msg); err != nil {
							return // link closed underneath us: expected
						}
					}
				}()
			}
			// Two goroutines per side call Close: double-Close must be a
			// no-op, concurrent Close+Send must not race.
			for i := 0; i < 2; i++ {
				wg.Add(2)
				go func() {
					defer wg.Done()
					<-start
					dialer.Close()
				}()
				go func() {
					defer wg.Done()
					<-start
					acceptor.Close()
				}()
			}
			close(start)
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("close racing send deadlocked")
			}
			if err := dialer.SendData(7, msg); err == nil {
				t.Fatal("send after close should fail")
			}
		})
	}
}

// TestDoubleCloseAndAbort checks the teardown entry points are idempotent
// and safe to combine.
func TestDoubleCloseAndAbort(t *testing.T) {
	tr := NewLoopback()
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := linkPair(t, tr, "dc", hd, ha)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); dialer.Close() }()
		go func() { defer wg.Done(); acceptor.Abort() }()
	}
	wg.Wait()
	if err := <-hd.closed; err == nil {
		// Acceptor aborted, so the dialer may see either its own nil
		// close (if Close won) or the abort error — both acceptable.
		_ = err
	}
	<-ha.closed
}

// TestLinkFinRoundTrip sends FIN both directions and checks dispatch and
// stats.
func TestLinkFinRoundTrip(t *testing.T) {
	tr := NewLoopback()
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := linkPair(t, tr, "fin", hd, ha)
	if err := dialer.SendFin(7); err != nil {
		t.Fatal(err)
	}
	if err := dialer.SendFin(9); err != nil {
		t.Fatal(err)
	}
	if err := acceptor.SendFin(7); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ha.mu.Lock()
		n := ha.fins[7] + ha.fins[9]
		ha.mu.Unlock()
		hd.mu.Lock()
		m := hd.fins[7]
		hd.mu.Unlock()
		if n == 2 && m == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st := dialer.Stats(); st.FinsSent != 2 {
		t.Fatalf("dialer fin stats = %+v", st)
	}
	if err := dialer.SendFin(42); err == nil {
		t.Fatal("fin on an undeclared edge should fail")
	}
	closeBoth(dialer, acceptor)
}
