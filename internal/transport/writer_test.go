package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// batchLinkPair is tunedPair for handshakes that must succeed: tests tune
// heartbeats, the manifest or the handler type per side.
func batchLinkPair(t *testing.T, tr Transport, addr string, tuneDial, tuneAccept func(*LinkConfig), hd, ha Handler) (*Link, *Link) {
	t.Helper()
	d, a, derr, aerr := tunedPair(t, tr, addr, hd, ha, tuneDial, tuneAccept)
	if derr != nil || aerr != nil {
		t.Fatalf("handshake failed: dialer %v, acceptor %v", derr, aerr)
	}
	return d, a
}

// gatedTransport is an in-memory carrier whose connections, dialed and
// accepted, record every Write they are handed (when, and how many frames
// it carried) and can be gated: while a gate is shut, Write parks before the
// bytes move, the way a carrier does whose peer is not reading.
type gatedTransport struct {
	*Loopback
	mu             sync.Mutex
	conns, accepts []*gatedConn // in dial and accept order
}

func newGatedTransport() *gatedTransport { return &gatedTransport{Loopback: NewLoopback()} }

func (g *gatedTransport) track(c Conn, into *[]*gatedConn) *gatedConn {
	gc := &gatedConn{Conn: c, gate: make(chan struct{})}
	close(gc.gate)
	g.mu.Lock()
	*into = append(*into, gc)
	g.mu.Unlock()
	return gc
}

func (g *gatedTransport) Dial(addr string) (Conn, error) {
	c, err := g.Loopback.Dial(addr)
	if err != nil {
		return nil, err
	}
	return g.track(c, &g.conns), nil
}

func (g *gatedTransport) Listen(addr string) (Listener, error) {
	ln, err := g.Loopback.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &gatedListener{Listener: ln, g: g}, nil
}

type gatedListener struct {
	Listener
	g *gatedTransport
}

func (l *gatedListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.g.track(c, &l.g.accepts), nil
}

// dialed returns the i-th connection dialed through the transport.
func (g *gatedTransport) dialed(i int) *gatedConn {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.conns[i]
}

// accepted returns the i-th connection accepted through the transport.
func (g *gatedTransport) accepted(i int) *gatedConn {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.accepts[i]
}

// cut drops every connection made so far under whatever link runs on it:
// both ends' readers see the stream end.
func (g *gatedTransport) cut() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.conns {
		c.Conn.Close()
	}
}

type recordedWrite struct {
	at     time.Time
	frames []byte   // the type byte of each frame the Write carried
	seqs   []uint64 // and its sequence number
}

type gatedConn struct {
	Conn
	mu      sync.Mutex
	gate    chan struct{} // closed while the gate is open
	failing error         // what a Write reports instead of writing
	parked  int           // Writes waiting at the gate
	writes  []recordedWrite
}

func (c *gatedConn) shut() {
	c.mu.Lock()
	c.gate = make(chan struct{})
	c.mu.Unlock()
}

func (c *gatedConn) open() {
	c.mu.Lock()
	close(c.gate)
	c.mu.Unlock()
}

// fail makes every Write from now on (a parked one included) report err.
func (c *gatedConn) fail(err error) {
	c.mu.Lock()
	c.failing = err
	c.mu.Unlock()
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	gate := c.gate
	c.parked++
	c.mu.Unlock()
	<-gate
	c.mu.Lock()
	c.parked--
	err := c.failing
	if err == nil {
		w := recordedWrite{at: time.Now()}
		for off := 0; off < len(p); off = frameEnd(p, off) {
			w.frames = append(w.frames, p[off+4])
			w.seqs = append(w.seqs, binary.LittleEndian.Uint64(p[off+5:]))
		}
		c.writes = append(c.writes, w)
	}
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// recorded returns the Writes recorded since the first n.
func (c *gatedConn) recorded(n int) []recordedWrite {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]recordedWrite(nil), c.writes[n:]...)
}

func (c *gatedConn) waitParked(t *testing.T) {
	t.Helper()
	waitFor(t, "a Write to reach the shut gate", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.parked > 0
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func dataMsg(i int) []byte {
	msg := make([]byte, 10)
	msg[0] = 7
	binary.LittleEndian.PutUint32(msg[2:], 4)
	binary.LittleEndian.PutUint32(msg[6:], uint32(i))
	return msg
}

// TestWriterHasNoDeadline: nothing on the write side waits for company. A
// lone frame on an idle link is on the wire within a millisecond whatever
// the (retired) batch knobs say, and so is a lone ack with no DATA beside
// it.
func TestWriterHasNoDeadline(t *testing.T) {
	gt := newGatedTransport()
	hd, ha := newRecordingHandler(), newRecordingHandler()
	tune := func(cfg *LinkConfig) {
		cfg.Batch = BatchConfig{MaxFrames: 1000, MaxBytes: 1 << 20, MaxDelay: time.Hour}
	}
	dialer, acceptor := batchLinkPair(t, gt, "no-deadline", tune, tune, hd, ha)
	defer closeBoth(dialer, acceptor)
	conn := gt.dialed(0)
	for name, send := range map[string]func() error{
		"DATA": func() error { return dialer.SendData(7, dataMsg(0)) },
		"ACK":  func() error { return dialer.SendAck(9, 1) },
	} {
		// The bound is on the link, not on this machine's scheduler: the
		// best of a few tries is what has to make it.
		best := time.Hour
		for try := 0; try < 10 && best > time.Millisecond; try++ {
			n := len(conn.recorded(0))
			start := time.Now()
			if err := send(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the lone "+name+" frame's write", func() bool { return len(conn.recorded(n)) > 0 })
			if d := conn.recorded(n)[0].at.Sub(start); d < best {
				best = d
			}
			time.Sleep(2 * time.Millisecond) // let the link go idle again
		}
		if best > time.Millisecond {
			t.Errorf("a lone %s frame on an idle link took %v to reach the carrier, want under 1ms", name, best)
		}
	}
	if st := dialer.Stats(); st.AcksSent == 0 {
		t.Error("no ACK frame sent for the lone acks")
	}
}

// TestWriterCoalescesWhileBlocked: a single producer is enough to batch.
// Frames sent while a write is in flight leave together in the next one, in
// sequence order, and the counters say so.
func TestWriterCoalescesWhileBlocked(t *testing.T) {
	gt := newGatedTransport()
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := batchLinkPair(t, gt, "coalesce", nil, nil, hd, ha)
	defer closeBoth(dialer, acceptor)
	conn := gt.dialed(0)
	before, stats := len(conn.recorded(0)), dialer.Stats()
	conn.shut()
	const n = 200
	for i := 0; i < n; i++ {
		if err := dialer.SendData(7, dataMsg(i)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			conn.waitParked(t) // the writer is now inside Write with the first frame
		}
	}
	conn.open()
	for i, msg := range ha.waitData(t, 7, n) {
		if got := binary.LittleEndian.Uint32(msg[6:]); got != uint32(i) {
			t.Fatalf("message %d carries %d", i, got)
		}
	}
	var seqs []uint64
	writes := conn.recorded(before)
	for _, w := range writes {
		for i, typ := range w.frames {
			if typ == frameData {
				seqs = append(seqs, w.seqs[i])
			}
		}
	}
	if len(writes) > 3 {
		t.Errorf("%d frames sent behind a blocked write left in %d writes, want at most 3", n, len(writes))
	}
	for i := range seqs {
		if seqs[i] != seqs[0]+uint64(i) {
			t.Fatalf("DATA frame %d on the wire has seq %d, want %d", i, seqs[i], seqs[0]+uint64(i))
		}
	}
	if len(seqs) != n {
		t.Fatalf("%d DATA frames on the wire, want %d", len(seqs), n)
	}
	// The writer counts a write once Write returns, which can be after the
	// peer has already read what it carried.
	waitFor(t, "the writer to count its writes", func() bool {
		return dialer.Stats().Writes-stats.Writes >= int64(len(writes))
	})
	st := dialer.Stats()
	if w, f := st.Writes-stats.Writes, st.FramesSent-stats.FramesSent; w != int64(len(writes)) || f < n || st.BatchFlushes == stats.BatchFlushes {
		t.Errorf("counters: %d writes (carrier saw %d), %d frames, %d multi-frame writes", w, len(writes), f, st.BatchFlushes-stats.BatchFlushes)
	}
}

// ackingHandler acknowledges every DATA frame from inside HandleData, on
// the link's reader goroutine — the traffic that wedged a link whose reader
// (or whose SendAck) could park in a carrier write.
type ackingHandler struct {
	*recordingHandler
	link atomic.Pointer[Link]
}

func (h *ackingHandler) HandleData(edge uint16, msg []byte) {
	h.recordingHandler.HandleData(edge, msg)
	if l := h.link.Load(); l != nil {
		l.SendAck(edge, 1)
	}
}

// TestWriterMixedSizesKeepOrder: eight senders mix frames on both sides of
// the inline-write threshold while the receiver acks every one inline. The
// receiving link enforces seq = previous + 1 on every numbered frame (a gap
// fails it, a repeat is counted), so delivery of everything with no
// duplicate dropped is the order check; each sender's own frames must also
// arrive in the order it sent them.
func TestWriterMixedSizesKeepOrder(t *testing.T) {
	sizes := []int{16, 1000, inlineWriteBytes - frameHeaderBytes - 1, inlineWriteBytes - frameHeaderBytes, 20 << 10, 128 << 10}
	const senders, perSender = 8, 120
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			hd, ha := newRecordingHandler(), &ackingHandler{recordingHandler: newRecordingHandler()}
			dialer, acceptor := batchLinkPair(t, tr, testAddr(name), nil, nil, hd, ha)
			ha.link.Store(acceptor)
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < perSender; i++ {
						msg := make([]byte, sizes[(s+i)%len(sizes)])
						msg[0] = 7
						binary.LittleEndian.PutUint32(msg[2:], uint32(len(msg)-6))
						msg[6], msg[7] = byte(s), byte(i)
						if err := dialer.SendData(7, msg); err != nil {
							t.Errorf("sender %d frame %d: %v", s, i, err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			next := make([]int, senders)
			for _, msg := range ha.waitData(t, 7, senders*perSender) {
				if s, i := int(msg[6]), int(msg[7]); i != next[s] {
					t.Fatalf("sender %d: frame %d arrived where %d was due", s, i, next[s])
				} else {
					next[s]++
				}
			}
			hd.waitAcks(t, 7, senders*perSender)
			if st := acceptor.Stats(); st.DuplicatesDropped != 0 {
				t.Errorf("%d frames arrived twice", st.DuplicatesDropped)
			}
			select {
			case err := <-ha.closed:
				t.Fatalf("receiving link closed mid-stream: %v", err)
			default:
			}
			closeBoth(dialer, acceptor)
		})
	}
}

// TestWriterErrorsSurfaceOnce, fail-fast half: sends return once staged, so
// a failed write reaches the sender on its next send and the handler through
// HandleLinkClose, and nothing is left hanging.
func TestWriterErrorsSurfaceOnce(t *testing.T) {
	gt := newGatedTransport()
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := batchLinkPair(t, gt, "write-error", nil, nil, hd, ha)
	defer acceptor.Abort()
	broken := errors.New("carrier broke")
	gt.dialed(0).fail(broken)
	if err := dialer.SendData(7, dataMsg(0)); err != nil {
		t.Fatalf("the send that staged the doomed frame: %v", err)
	}
	select {
	case err := <-hd.closed:
		if !errors.Is(err, broken) {
			t.Fatalf("HandleLinkClose(%v), want the write error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the handler never heard of the failed write")
	}
	if err := dialer.SendData(7, dataMsg(1)); !errors.Is(err, ErrLinkClosed) {
		t.Fatalf("send after the failed write: %v, want ErrLinkClosed", err)
	}
	if err := dialer.SendAck(9, 1); !errors.Is(err, ErrLinkClosed) {
		t.Fatalf("ack after the failed write: %v, want ErrLinkClosed", err)
	}
	dialer.Close() // returns: nothing to drain on a failed link
}

// TestWriterReplaysStagedFramesOnce, the Reconnect half: frames staged (or
// inside the lost write) at the moment the connection dies are in the
// resend buffer, and the writer restarts from the first one the peer has
// not seen — each exactly once.
func TestWriterReplaysStagedFramesOnce(t *testing.T) {
	gt := newGatedTransport()
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor, stop := batchChaosPair(t, gt, func(*LinkConfig) {}, hd, ha)
	defer stop()
	conn := gt.dialed(0)
	conn.shut()
	const n = 10
	for i := 0; i < n; i++ {
		if err := dialer.SendData(7, dataMsg(i)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			conn.waitParked(t)
		}
	}
	// Sever: the parked write fails, nothing of the ten reached the peer.
	conn.fail(errSevered)
	conn.Conn.Close()
	conn.open()
	for i, msg := range ha.waitData(t, 7, n) {
		if got := binary.LittleEndian.Uint32(msg[6:]); got != uint32(i) {
			t.Fatalf("message %d carries %d", i, got)
		}
	}
	if st := dialer.Stats(); st.Resumes != 1 || st.Retransmits != n {
		t.Errorf("dialer: %d resumes, %d retransmits; want 1 and the %d unacknowledged frames", st.Resumes, st.Retransmits, n)
	}
	closeBoth(dialer, acceptor)
	if st := acceptor.Stats(); st.DuplicatesDropped != 0 || st.DataReceived != n {
		t.Errorf("acceptor: %d DATA frames, %d duplicates dropped; want %d and 0", st.DataReceived, st.DuplicatesDropped, n)
	}
}

// TestCloseDrainsWriter: Close right after a burst of sends delivers all of
// it before the peer sees the GOODBYE, and Abort returns with the writer
// goroutine gone.
func TestCloseDrainsWriter(t *testing.T) {
	before := runtime.NumGoroutine()
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := linkPair(t, NewLoopback(), "close-drains", hd, ha)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := dialer.SendData(7, dataMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- dialer.Close() }()
	if err := <-ha.closed; err != nil {
		t.Fatalf("peer saw the close as %v", err)
	}
	// HandleLinkClose(nil) is the GOODBYE, dispatched in wire order.
	ha.mu.Lock()
	got := len(ha.data[7])
	ha.mu.Unlock()
	if got != n {
		t.Fatalf("GOODBYE arrived after %d of %d messages", got, n)
	}
	acceptor.Close()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2, a2 := linkPair(t, NewLoopback(), "abort", newRecordingHandler(), newRecordingHandler())
	for i := 0; i < n; i++ {
		if err := d2.SendData(7, dataMsg(i)); err != nil {
			break
		}
	}
	d2.Abort()
	a2.Abort()
	select {
	case <-d2.writerDone:
	default:
		t.Fatal("Abort returned with the writer still running")
	}
	waitFor(t, "every link goroutine to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestBidirectionalRoundTrip drives ordered traffic both directions, each
// message beside an ack queued for the other direction's edge, over every
// carrier, and checks delivery is exact and in order.
func TestBidirectionalRoundTrip(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			hd, ha := newRecordingHandler(), newRecordingHandler()
			dialer, acceptor := batchLinkPair(t, tr, testAddr(name), nil, nil, hd, ha)
			const n = 200
			for i := 0; i < n; i++ {
				fwd := make([]byte, 8)
				fwd[0] = 7
				binary.LittleEndian.PutUint32(fwd[2:], 2)
				binary.LittleEndian.PutUint16(fwd[6:], uint16(i))
				if err := dialer.SendData(7, fwd); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				if err := dialer.SendAck(9, 1); err != nil {
					t.Fatalf("ack %d: %v", i, err)
				}
				back := []byte{9, 0, byte(i), byte(i >> 8)}
				if err := acceptor.SendData(9, back); err != nil {
					t.Fatalf("back send %d: %v", i, err)
				}
			}
			fwd := ha.waitData(t, 7, n)
			back := hd.waitData(t, 9, n)
			for i := 0; i < n; i++ {
				if got := binary.LittleEndian.Uint16(fwd[i][6:]); got != uint16(i) {
					t.Fatalf("forward message %d carries %d", i, got)
				}
				if want := []byte{9, 0, byte(i), byte(i >> 8)}; !bytes.Equal(back[i], want) {
					t.Fatalf("backward message %d = %x, want %x", i, back[i], want)
				}
			}
			ha.waitAcks(t, 9, n)
			if st := dialer.Stats(); st.Writes > st.FramesSent {
				t.Errorf("%d writes for %d frames", st.Writes, st.FramesSent)
			}
			closeBoth(dialer, acceptor)
		})
	}
}

// TestWriterRacesClose hammers the writer against Close: both sides keep
// staging frames and queueing acks while the link is torn down mid-send.
// Run under -race this covers the staging and shutdown locking.
func TestWriterRacesClose(t *testing.T) {
	for i := 0; i < 25; i++ {
		hd, ha := newRecordingHandler(), newRecordingHandler()
		dialer, acceptor := batchLinkPair(t, NewLoopback(), fmt.Sprintf("writer-close-%d", i), nil, nil, hd, ha)
		done := make(chan struct{})
		go func() {
			defer close(done)
			msg := []byte{7, 0, 1, 0, 0, 0, 42}
			for {
				if err := dialer.SendData(7, msg); err != nil {
					return
				}
			}
		}()
		ackDone := make(chan struct{})
		go func() {
			defer close(ackDone)
			for {
				if err := acceptor.SendAck(7, 1); err != nil {
					return
				}
			}
		}()
		time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
		closeBoth(dialer, acceptor)
		<-done
		<-ackDone
	}
}

// TestSendFinOrdering: FIN is sequenced behind everything sent before it —
// the DATA frames and the acks still queued for the writer — so the peer
// observes all of it before the FIN.
func TestSendFinOrdering(t *testing.T) {
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := batchLinkPair(t, NewLoopback(), "fin-order", nil, nil, hd, ha)
	const n = 5
	for i := 0; i < n; i++ {
		msg := []byte{7, 0, 1, 0, 0, 0, byte(i)}
		if err := dialer.SendData(7, msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := dialer.SendAck(9, 3); err != nil {
		t.Fatal(err)
	}
	if err := dialer.SendFin(7); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ha.mu.Lock()
		fins, data, acks := ha.fins[7], len(ha.data[7]), ha.acks[9]
		ha.mu.Unlock()
		if fins > 0 {
			// Handler calls arrive in wire order: at FIN time everything
			// sent before it must already have been dispatched.
			if data != n || acks != 3 {
				t.Fatalf("FIN arrived after %d of %d data messages and %d of 3 acks", data, n, acks)
			}
			closeBoth(dialer, acceptor)
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("timed out waiting for FIN")
}

// TestBatchResumeAfterSever severs the connection in the middle of
// coalesced writes, with acks queued the other way: the RESUME replay must still
// deliver the numbered stream exactly once, in order, bit-identical — the
// frames of a lost write are recovered from the per-frame resend buffer.
func TestBatchResumeAfterSever(t *testing.T) {
	ft := NewFaultTransport(NewLoopback(), FaultConfig{Seed: 17, SeverAt: []int{11, 29, 60}, SkipFrames: 4})
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor, stop := batchChaosPair(t, ft, func(*LinkConfig) {}, hd, ha)
	defer stop()
	const n = 200
	for i := 0; i < n; i++ {
		msg := make([]byte, 10)
		msg[0] = 7
		binary.LittleEndian.PutUint32(msg[2:], 4)
		binary.LittleEndian.PutUint32(msg[6:], uint32(i))
		if err := dialer.SendData(7, msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if i%5 == 4 {
			if err := acceptor.SendAck(7, 5); err != nil {
				t.Fatalf("ack after %d: %v", i, err)
			}
		}
	}
	got := ha.waitData(t, 7, n)
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, msg := range got {
		if payload := binary.LittleEndian.Uint32(msg[6:]); payload != uint32(i) {
			t.Fatalf("message %d carries payload %d (order broken across resume)", i, payload)
		}
	}
	hd.waitAcks(t, 7, n)
	if st := dialer.Stats(); st.Resumes == 0 {
		t.Fatal("severs injected but no resume recorded")
	}
	closeBoth(dialer, acceptor)
}

// batchChaosPair is chaosLinkPair over any transport, with a LinkConfig
// tuner on both sides.
func batchChaosPair(t *testing.T, ft Transport, tune func(*LinkConfig), hd, ha Handler) (*Link, *Link, func()) {
	t.Helper()
	ln, err := ft.Listen("batch-chaos")
	if err != nil {
		t.Fatal(err)
	}
	rc := ReconnectConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Deadline: 20 * time.Second}
	accepted := make(chan *Link, 1)
	go func() {
		var acceptor *Link
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			cfg := LinkConfig{Node: 1, Reconnect: rc}
			tune(&cfg)
			l, err := AcceptConn(c, cfg,
				func(peer int) ([]EdgeDecl, Handler, error) { return testManifest(false), ha, nil },
				func(peer int, token uint64) *Link {
					if acceptor != nil && acceptor.PeerNode() == peer && acceptor.Token() == token {
						return acceptor
					}
					return nil
				})
			if err != nil {
				continue
			}
			if l != nil {
				acceptor = l
				accepted <- l
			}
		}
	}()
	c, err := ft.Dial("batch-chaos")
	if err != nil {
		t.Fatal(err)
	}
	cfg := LinkConfig{
		Node: 0, Edges: testManifest(true),
		Reconnect: rc,
		Redial:    func() (Conn, error) { return ft.Dial("batch-chaos") },
	}
	tune(&cfg)
	dialer, err := NewLink(c, cfg, hd)
	if err != nil {
		t.Fatal(err)
	}
	acceptor := <-accepted
	return dialer, acceptor, func() { ln.Close() }
}

// FuzzDecodeBatched fuzzes the decoding of a batch: the frames one writer
// pass coalesces into a single carrier write (a batch flush, in LinkStats).
// Frames built from the fuzz input and concatenated the way a writer pass
// stages them, handed to the frame reader in reads of a fuzz-chosen size,
// must come back one by one with type, sequence number and body intact, and
// then EOF. The raw input, read the same way, must never panic the reader.
func FuzzDecodeBatched(f *testing.F) {
	f.Add([]byte{frameData, 7, 0, 1, 2}, uint8(3))
	f.Add([]byte{frameAck, 7, 0, 3, 0, 0, 0, frameData, 9, 0}, uint8(0))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{255, 255, 255, 255, 1}, uint8(255))
	f.Fuzz(func(t *testing.T, in []byte, chunk uint8) {
		var raw frameReader
		defer raw.release()
		for rd := (&trickle{p: in, n: int(chunk) + 1}); ; {
			if _, _, _, err := raw.read(rd, DefaultMaxFrame); err != nil {
				break
			}
		}
		if len(in) > 64 {
			in = in[:64]
		}
		// Frame i has type in[i], seq i and a body of up to 6 bytes of in,
		// split at a varying point into head|tail.
		var wire []byte
		bodies := make([][]byte, len(in))
		for i, typ := range in {
			body := in[i:min(len(in), i+int(typ)%7)]
			k := i % (len(body) + 1)
			wire = appendFrame(wire, typ, uint64(i), body[:k], body[k:])
			bodies[i] = body
		}
		var fr frameReader
		defer fr.release()
		rd := &trickle{p: wire, n: int(chunk) + 1}
		for i := range in {
			typ, seq, body, err := fr.read(rd, DefaultMaxFrame)
			if err != nil {
				t.Fatalf("frame %d of %d: %v", i, len(in), err)
			}
			if typ != in[i] || seq != uint64(i) || !bytes.Equal(body, bodies[i]) {
				t.Fatalf("frame %d read back as type %d seq %d body %x, want %d %d %x", i, typ, seq, body, in[i], i, bodies[i])
			}
		}
		if _, _, _, err := fr.read(rd, DefaultMaxFrame); err != io.EOF {
			t.Fatalf("after the last frame: %v, want EOF", err)
		}
	})
}

// trickle hands out its bytes at most n per Read, the way a stream carrier
// may split a coalesced write.
type trickle struct {
	p []byte
	n int
}

func (r *trickle) Read(b []byte) (int, error) {
	if len(r.p) == 0 {
		return 0, io.EOF
	}
	k := copy(b, r.p[:min(len(r.p), r.n)])
	r.p = r.p[k:]
	return k, nil
}
