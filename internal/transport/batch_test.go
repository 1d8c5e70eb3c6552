package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// batchLinkPair is tunedPair for handshakes that must succeed: tests tune
// batching, piggybacking, heartbeats, the manifest or the handler type per
// side.
func batchLinkPair(t *testing.T, tr Transport, addr string, tuneDial, tuneAccept func(*LinkConfig), hd, ha Handler) (*Link, *Link) {
	t.Helper()
	d, a, derr, aerr := tunedPair(t, tr, addr, hd, ha, tuneDial, tuneAccept)
	if derr != nil || aerr != nil {
		t.Fatalf("handshake failed: dialer %v, acceptor %v", derr, aerr)
	}
	return d, a
}

func enableBatching(cfg *LinkConfig) {
	cfg.Batch = BatchConfig{MaxFrames: 8, MaxDelay: 200 * time.Microsecond}
	cfg.PiggybackAcks = true
}

func TestBatchConfigEnabled(t *testing.T) {
	cases := []struct {
		cfg  BatchConfig
		want bool
	}{
		{BatchConfig{}, false},
		{BatchConfig{MaxFrames: 1}, false},
		{BatchConfig{MaxFrames: 1, MaxBytes: 1 << 16, MaxDelay: time.Millisecond}, false},
		{BatchConfig{MaxFrames: 2}, true},
		{BatchConfig{MaxBytes: 4096}, true},
		{BatchConfig{MaxDelay: time.Microsecond}, true},
	}
	for _, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Errorf("Enabled(%+v) = %v, want %v", c.cfg, got, c.want)
		}
	}
	d := BatchConfig{MaxFrames: 2}.withDefaults()
	if d.MaxBytes == 0 || d.MaxDelay == 0 {
		t.Fatalf("withDefaults left zero thresholds: %+v", d)
	}
	if z := (BatchConfig{}).withDefaults(); z.Enabled() {
		t.Fatalf("withDefaults enabled a zero config: %+v", z)
	}
}

// TestBatchedRoundTrip drives ordered traffic both directions with the
// coalescer on and checks delivery is exact, in order, and actually
// batched (the flush counter moves).
func TestBatchedRoundTrip(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			hd, ha := newRecordingHandler(), newRecordingHandler()
			dialer, acceptor := batchLinkPair(t, tr, testAddr(name), enableBatching, enableBatching, hd, ha)
			const n = 200
			for i := 0; i < n; i++ {
				fwd := make([]byte, 8)
				fwd[0] = 7
				binary.LittleEndian.PutUint32(fwd[2:], 2)
				binary.LittleEndian.PutUint16(fwd[6:], uint16(i))
				if err := dialer.SendData(7, fwd); err != nil {
					t.Fatalf("send %d: %v", i, err)
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
			if st := dialer.Stats(); st.BatchFlushes == 0 {
				t.Fatal("batching enabled but no flushes counted")
			}
			if st := dialer.Stats(); st.FramesSent >= n+n {
				// n DATA frames in ≥ some batches: frame count is per frame,
				// so just sanity-check the counter did not explode.
				t.Logf("frames sent: %d", st.FramesSent)
			}
			closeBoth(dialer, acceptor)
		})
	}
}

// TestBatchDeadlineFlushesSparseTraffic sets thresholds far above the
// traffic so only the deadline timer can flush: sparse frames must still
// arrive promptly.
func TestBatchDeadlineFlushesSparseTraffic(t *testing.T) {
	tune := func(cfg *LinkConfig) {
		cfg.Batch = BatchConfig{MaxFrames: 1000, MaxBytes: 1 << 20, MaxDelay: time.Millisecond}
	}
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := batchLinkPair(t, NewLoopback(), "batch-deadline", tune, tune, hd, ha)
	for i := 0; i < 3; i++ {
		msg := []byte{7, 0, 1, 0, 0, 0, byte(i)}
		if err := dialer.SendData(7, msg); err != nil {
			t.Fatal(err)
		}
	}
	got := ha.waitData(t, 7, 3)
	for i, msg := range got[:3] {
		if msg[6] != byte(i) {
			t.Fatalf("message %d carries %d", i, msg[6])
		}
	}
	closeBoth(dialer, acceptor)
}

// TestBatchFlushDeadlineRacesClose hammers the deadline timer against
// Close: a short MaxDelay keeps the timer firing while the link is torn
// down mid-send. Run under -race this covers the coalescer's locking.
func TestBatchFlushDeadlineRacesClose(t *testing.T) {
	for i := 0; i < 25; i++ {
		tune := func(cfg *LinkConfig) {
			cfg.Batch = BatchConfig{MaxFrames: 4, MaxDelay: 50 * time.Microsecond}
			cfg.PiggybackAcks = true
		}
		hd, ha := newRecordingHandler(), newRecordingHandler()
		dialer, acceptor := batchLinkPair(t, NewLoopback(), fmt.Sprintf("batch-close-%d", i), tune, tune, hd, ha)
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

// TestBatchedSendFinOrdering buffers DATA behind generous thresholds and
// a long deadline, then FINs the edge: SendFin must flush the batch
// first, so the peer observes every DATA frame before the FIN.
func TestBatchedSendFinOrdering(t *testing.T) {
	tune := func(cfg *LinkConfig) {
		cfg.Batch = BatchConfig{MaxFrames: 1000, MaxBytes: 1 << 20, MaxDelay: time.Second}
	}
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := batchLinkPair(t, NewLoopback(), "batch-fin", tune, tune, hd, ha)
	const n = 5
	for i := 0; i < n; i++ {
		msg := []byte{7, 0, 1, 0, 0, 0, byte(i)}
		if err := dialer.SendData(7, msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := dialer.SendFin(7); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ha.mu.Lock()
		fins, data := ha.fins[7], len(ha.data[7])
		ha.mu.Unlock()
		if fins > 0 {
			// Handler calls arrive in wire order: at FIN time every
			// buffered DATA frame must already have been dispatched.
			if data != n {
				t.Fatalf("FIN arrived after %d of %d data messages", data, n)
			}
			closeBoth(dialer, acceptor)
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("timed out waiting for FIN")
}

// TestBatchResumeAfterSever severs the connection while the coalescer
// holds partially flushed batches, with piggybacking on: the RESUME
// replay must still deliver the numbered stream exactly once, in order,
// bit-identical — batched bytes lost with the connection are recovered
// from the per-frame resend buffer.
func TestBatchResumeAfterSever(t *testing.T) {
	ft := NewFaultTransport(NewLoopback(), FaultConfig{Seed: 17, SeverAt: []int{11, 29, 60}, SkipFrames: 4})
	hd, ha := newRecordingHandler(), newRecordingHandler()
	tune := func(cfg *LinkConfig) {
		cfg.Batch = BatchConfig{MaxFrames: 4, MaxDelay: 100 * time.Microsecond}
		cfg.PiggybackAcks = true
	}
	dialer, acceptor, stop := batchChaosPair(t, ft, tune, hd, ha)
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

// batchChaosPair is chaosLinkPair with a LinkConfig tuner on both sides.
func batchChaosPair(t *testing.T, ft *FaultTransport, tune func(*LinkConfig), hd, ha Handler) (*Link, *Link, func()) {
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

// FuzzDecodeBatched fuzzes the DATAACK framing: arbitrary bodies must
// never panic the splitter, and a well-formed piggyback prefix built from
// the fuzz input must round-trip through the frame encoder and reader
// bit-identically.
func FuzzDecodeBatched(f *testing.F) {
	f.Add([]byte{0, 7, 0}, []byte{7, 0, 1, 2})
	f.Add([]byte{1, 7, 0, 3, 0, 0, 0, 9, 0}, []byte{9, 0})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{255}, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, body, msg []byte) {
		if acks, m, err := splitDataAck(body); err == nil {
			if len(acks)%piggyEntryBytes != 0 {
				t.Fatalf("splitDataAck returned %d ack bytes, not a multiple of %d", len(acks), piggyEntryBytes)
			}
			if len(m) < 2 {
				t.Fatalf("splitDataAck returned %d-byte message, shorter than an SPI header", len(m))
			}
		}
		if len(msg) < 2 {
			return
		}
		// Build a well-formed prefix from the fuzz bytes: u8 n then n
		// six-byte entries drawn (cyclically) from body.
		n := 0
		if len(body) > 0 {
			n = int(body[0]) % 8
		}
		prefix := make([]byte, 1+n*piggyEntryBytes)
		prefix[0] = byte(n)
		for i := 1; i < len(prefix); i++ {
			if len(body) > 0 {
				prefix[i] = body[i%len(body)]
			}
		}
		fr := buildFrame(frameDataAck, 42, prefix, msg)
		defer putWire(fr.buf)
		var reader frameReader
		typ, seq, got, err := reader.read(bytes.NewReader(fr.wire), DefaultMaxFrame)
		if err != nil {
			t.Fatalf("reading back a built frame: %v", err)
		}
		if typ != frameDataAck || seq != 42 {
			t.Fatalf("frame read back as type %d seq %d", typ, seq)
		}
		acks, m, err := splitDataAck(got)
		if err != nil {
			t.Fatalf("splitting a well-formed DATAACK: %v", err)
		}
		if !bytes.Equal(acks, prefix[1:]) {
			t.Fatalf("ack entries %x, want %x", acks, prefix[1:])
		}
		if !bytes.Equal(m, msg) {
			t.Fatalf("message %x, want %x", m, msg)
		}
	})
}
