package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"repro/internal/alloctest"
)

// The handshake is two tables. TestHandshakeRefused: what HELLO checks for
// equality is refused, synchronously and naming the cause, when the two
// ends differ. TestMixedLocalPolicy: everything else a LinkConfig sets is
// local send policy, and a link whose ends set it differently works.

// oldHello encodes a HELLO the way protocol versions 2 and 3 did (no flags
// byte; v3 appended a u32 feature word), for the version-refusal rows.
func oldHello(version byte, edges []EdgeDecl) []byte {
	cur := encodeHello(0, 1, edges, false)
	body := append([]byte{}, cur[:5]...) // magic | version
	body = append(body, cur[6:]...)      // node | token | nedges | decls
	body[4] = version
	if version >= 3 {
		body = append(body, 1, 0, 0, 0)
	}
	return body
}

// tamperedHello is a well-formed current HELLO with one byte overwritten.
func tamperedHello(off int, v byte) []byte {
	body := encodeHello(0, 1, testManifest(true), false)
	body[off] = v
	return body
}

func TestHandshakeRefused(t *testing.T) {
	resync := func(ids ...uint16) func(*LinkConfig) {
		return func(cfg *LinkConfig) { cfg.ResyncEdges = ids }
	}
	blocked := func(cfg *LinkConfig) { cfg.Blocked = true }
	sessions := func(cfg *LinkConfig) { cfg.Sessions = true }
	cases := []struct {
		name string
		// hello (or resume), when set, is written by a raw dialer as its
		// first frame; otherwise two links handshake under the tuners.
		hello, resume []byte
		tuneD, tuneA  func(*LinkConfig)
		want          []string // every one must appear in the refusal
	}{
		{name: "hello v2", hello: oldHello(2, testManifest(true)), want: []string{"version 2", "version 5"}},
		{name: "hello v3", hello: oldHello(3, testManifest(true)), want: []string{"version 3", "version 5"}},
		{name: "hello v4", hello: tamperedHello(4, 4), want: []string{"version 4", "version 5"}},
		{name: "resume v4", resume: tamperedResume(4, 4), want: []string{"resume", "version 4", "version 5"}},
		{name: "unknown hello flag bit", hello: tamperedHello(5, 0x82), want: []string{"hello sets unknown flag bits 0x82"}},
		{name: "unknown decl flag bit", hello: tamperedHello(helloFixedBytes+3, declOut|0x04), want: []string{"edge 7", "unknown flag bits 0x4"}},
		{name: "blocked dialer, scalar acceptor", tuneD: blocked, want: []string{"peer runs blocked", "-block"}},
		{name: "scalar dialer, blocked acceptor", tuneA: blocked, want: []string{"this side runs blocked", "-block"}},
		{name: "suppression {7} vs {}", tuneD: resync(7),
			want: []string{"manifest mismatch on edge 7", "peer suppresses acks, local does not", "-resync"}},
		{name: "suppression {} vs {7}", tuneA: resync(7),
			want: []string{"manifest mismatch on edge 7", "local suppresses acks, peer does not", "-resync"}},
		{name: "suppression {7} vs {9}", tuneD: resync(7), tuneA: resync(9),
			want: []string{"manifest mismatch on edge", "suppresses acks", "-resync"}},
		{name: "Sessions with a plain Handler, dialer", tuneD: sessions, want: []string{"Sessions", "not a SessionHandler"}},
		{name: "Sessions with a plain Handler, acceptor", tuneA: sessions, want: []string{"Sessions", "not a SessionHandler"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			var refusal string
			switch {
			case tc.hello != nil:
				refusal = refuseRaw(t, frameHello, tc.hello)
			case tc.resume != nil:
				refusal = refuseRaw(t, frameResume, tc.resume)
			default:
				d, a, derr, aerr := tunedPair(t, NewLoopback(), "refused", newRecordingHandler(), newRecordingHandler(), tc.tuneD, tc.tuneA)
				if d != nil || a != nil || derr == nil || aerr == nil {
					t.Fatalf("handshake built a link: dialer %v (%v), acceptor %v (%v)", d, derr, a, aerr)
				}
				if IsTransient(derr) || IsTransient(aerr) {
					t.Fatalf("a refusal must be fatal, not retried: dialer %v, acceptor %v", derr, aerr)
				}
				refusal = derr.Error() + "; " + aerr.Error()
			}
			for _, w := range tc.want {
				if !strings.Contains(refusal, w) {
					t.Errorf("refusal %q does not say %q", refusal, w)
				}
			}
			// Synchronous: decided by the HELLO exchange, not by a timeout.
			if d := time.Since(start); d > time.Second {
				t.Errorf("refused after %v, want at once", d)
			}
		})
	}
}

// tamperedResume is tamperedHello for a RESUME.
func tamperedResume(off int, v byte) []byte {
	body := encodeResume(0, 1, 0)
	body[off] = v
	return body
}

// refuseRaw plays a dialer that writes one frame of type typ as its first
// and returns the acceptor's refusal.
func refuseRaw(t *testing.T, typ byte, body []byte) string {
	t.Helper()
	tr := NewLoopback()
	ln, err := tr.Listen("raw")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := tr.Dial("raw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go writeFrame(c, typ, 0, body)
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	l, err := AcceptLink(sc, LinkConfig{Node: 1}, func(int) ([]EdgeDecl, Handler, error) {
		return testManifest(false), newRecordingHandler(), nil
	})
	if err == nil {
		l.Abort()
		t.Fatal("handshake accepted the first frame")
	}
	return err.Error()
}

// TestMixedLocalPolicy: heartbeat probing set on one side only. The
// configured side behaves as configured, the other side as if the option
// did not exist, and all traffic arrives. (Coalescing is not a policy any
// more: every link does it, see TestWriterCoalescesWhileBlocked; nor is
// where an ack travels: every SPI ack is an ACK frame in the writer's next
// pass, beside whatever DATA is staged.)
func TestMixedLocalPolicy(t *testing.T) {
	heartbeat := func(cfg *LinkConfig) { cfg.Heartbeat, cfg.PeerTimeout = 10*time.Millisecond, 500*time.Millisecond }

	// exchange moves n messages and n acks each way: edge 7 (UBS) dialer →
	// acceptor, edge 9 (BBS credits) back, every ack queued beside DATA.
	// Each side acks and sends behind a write parked at its shut gate, so
	// the writer's next pass finds acks and DATA waiting together.
	const n = 20
	exchange := func(t *testing.T, gt *gatedTransport, dialer, acceptor *Link, hd, ha *recordingHandler) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := dialer.SendData(7, []byte{7, 0, 1, 0, 0, 0, byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		ha.waitData(t, 7, n)
		ackAndSend := func(conn *gatedConn, l *Link, ackEdge, dataEdge uint16) {
			conn.shut()
			for i := 0; i < n; i++ {
				if err := l.SendAck(ackEdge, 1); err != nil {
					t.Fatal(err)
				}
				if err := l.SendData(dataEdge, []byte{byte(dataEdge), 0, 1, 0, 0, 0, byte(i)}); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					conn.waitParked(t)
				}
			}
			conn.open()
		}
		ackAndSend(gt.accepted(0), acceptor, 7, 9)
		hd.waitAcks(t, 7, n)
		hd.waitData(t, 9, n)
		ackAndSend(gt.dialed(0), dialer, 9, 7)
		ha.waitAcks(t, 9, n)
		ha.waitData(t, 7, 2*n)
	}

	// Acks for one edge merge while the writer is busy: the credits all
	// arrive (exchange waited for them) in 1..n ACK frames, and at least one
	// Write carries an ACK beside DATA.
	acksBesideData := func(t *testing.T, side string, sent LinkStats, peerRecv int64, writes []recordedWrite) {
		t.Helper()
		if sent.AcksSent < 1 || sent.AcksSent > n || peerRecv != sent.AcksSent {
			t.Errorf("%s sent %d ACK frames (peer read %d), want 1..%d", side, sent.AcksSent, peerRecv, n)
		}
		var ackFrames int64
		beside := false
		for _, w := range writes {
			hasAck, hasData := false, false
			for _, typ := range w.frames {
				hasAck = hasAck || typ == frameAck
				hasData = hasData || typ == frameData
				if typ == frameAck {
					ackFrames++
				}
			}
			beside = beside || hasAck && hasData
		}
		if ackFrames != sent.AcksSent {
			t.Errorf("%s: %d ACK frames on the wire, stats say %d", side, ackFrames, sent.AcksSent)
		}
		if !beside {
			t.Errorf("%s: no Write carried an ACK frame beside DATA", side)
		}
	}

	// The prober gets PONGs and an RTT sample from a peer that never
	// probes back.
	probed := func(t *testing.T, prober, peer *Link) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for prober.Stats().PongsReceived == 0 || prober.Liveness().LastRTTMicros <= 0 {
			if time.Now().After(deadline) {
				t.Fatalf("prober never got an echo: %+v", prober.Stats())
			}
			time.Sleep(time.Millisecond)
		}
		if st := peer.Stats(); st.PingsSent != 0 || peer.Liveness().HeartbeatOn {
			t.Errorf("the unconfigured side probes: %d pings", st.PingsSent)
		}
	}

	cases := []struct {
		name         string
		tuneD, tuneA func(*LinkConfig)
		idle         func(t *testing.T, dialer, acceptor *Link) // before any traffic
		// check runs after the exchange, with each side's stats and the
		// Writes its connection recorded.
		check func(t *testing.T, d, a LinkStats, dw, aw []recordedWrite)
	}{
		{"acks beside DATA both ways, no resync", nil, nil, nil, func(t *testing.T, d, a LinkStats, dw, aw []recordedWrite) {
			acksBesideData(t, "acceptor", a, d.AcksReceived, aw)
			acksBesideData(t, "dialer", d, a.AcksReceived, dw)
		}},
		{"heartbeat on the dialer only", heartbeat, nil, probed, func(t *testing.T, d, a LinkStats, _, _ []recordedWrite) {
			if d.HeartbeatTimeouts != 0 {
				t.Errorf("live peer produced %d heartbeat timeouts", d.HeartbeatTimeouts)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gt := newGatedTransport()
			hd, ha := newRecordingHandler(), newRecordingHandler()
			dialer, acceptor := batchLinkPair(t, gt, "mixed", tc.tuneD, tc.tuneA, hd, ha)
			if tc.idle != nil {
				tc.idle(t, dialer, acceptor)
			}
			exchange(t, gt, dialer, acceptor, hd, ha)
			tc.check(t, dialer.Stats(), acceptor.Stats(), gt.dialed(0).recorded(0), gt.accepted(0).recorded(0))
			closeBoth(dialer, acceptor)
		})
	}

	// A black-holed peer that never probed is still declared dead by the
	// side that does, within 2× PeerTimeout.
	t.Run("heartbeat on the acceptor only, peer black-holed", func(t *testing.T) {
		const timeout = 300 * time.Millisecond
		// StallAt 1: the dialer's first write after its HELLO vanishes, and
		// every later one (PONGs included); MaxFaults 1 keeps the acceptor's
		// direction open.
		ft := NewFaultTransport(NewLoopback(), FaultConfig{StallAt: 1, MaxFaults: 1})
		hd, ha := newRecordingHandler(), newRecordingHandler()
		dialer, acceptor := batchLinkPair(t, ft, "mixed-stall", nil,
			func(cfg *LinkConfig) { cfg.Heartbeat, cfg.PeerTimeout = 25*time.Millisecond, timeout }, hd, ha)
		defer dialer.Abort()
		defer acceptor.Abort()
		if err := dialer.SendData(7, []byte{7, 0, 4, 0, 0, 0, 0xBB, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		select {
		case err := <-ha.closed:
			if elapsed := time.Since(start); elapsed > 2*timeout {
				t.Fatalf("silent peer declared dead after %v, contract is 2x peer timeout (%v)", elapsed, 2*timeout)
			}
			if err == nil || !strings.Contains(err.Error(), "heartbeat timeout") {
				t.Fatalf("link failed with %v, want a heartbeat timeout", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("silent peer never declared dead (acceptor stats: %+v)", acceptor.Stats())
		}
	})
}

// TestSendNeedsHandlerType: with nothing negotiated, what gates session
// and CTRL frames is the handler's type, on both ends: a link whose
// handler cannot receive a frame family refuses to send it, and fails
// with a protocol error when its peer does.
func TestSendNeedsHandlerType(t *testing.T) {
	hd, ha := newSessionRecorder(), newRecordingHandler()
	d, a := linkPair(t, NewLoopback(), "gate", hd, ha)
	defer d.Abort()
	defer a.Abort()
	if err := a.SendSessionOpen(1, "tenant"); err == nil || !strings.Contains(err.Error(), "SessionHandler") {
		t.Fatalf("plain-handler link sent a session frame: %v", err)
	}
	if err := a.SendCtrl(1, nil); err == nil || !strings.Contains(err.Error(), "CtrlHandler") {
		t.Fatalf("plain-handler link sent a ctrl frame: %v", err)
	}
	if err := d.SendSessionOpen(1, "tenant"); err != nil {
		t.Fatalf("session-handler link refused a session frame: %v", err)
	}
	select {
	case err := <-ha.closed:
		if err == nil || !strings.Contains(err.Error(), "not a SessionHandler") {
			t.Fatalf("plain-handler link closed with %v, want the protocol error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a session frame for a plain handler did not fail the link")
	}
}

// TestRetiredFrameType: type 9 was DATAACK, retired with protocol v4. A peer
// that sends one after the handshake fails the link with a protocol error
// naming the type, and nothing of the frame is dispatched.
func TestRetiredFrameType(t *testing.T) {
	tr := NewLoopback()
	ln, err := tr.Listen("retired")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := tr.Dial("retired")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ha := newRecordingHandler()
	accepted := make(chan *Link, 1)
	go func() {
		sc, err := ln.Accept()
		if err != nil {
			t.Error(err)
			accepted <- nil
			return
		}
		l, err := AcceptLink(sc, LinkConfig{Node: 1}, func(int) ([]EdgeDecl, Handler, error) {
			return testManifest(false), ha, nil
		})
		if err != nil {
			t.Error(err)
		}
		accepted <- l
	}()
	if err := writeFrame(c, frameHello, 0, encodeHello(0, 1, testManifest(true), false)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := readFrame(c, DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	a := <-accepted
	if a == nil {
		return
	}
	defer a.Abort()
	// A v4 DATAACK: one credit for outbound edge 9, riding a message on 7.
	if err := writeFrame(c, 9, 1, []byte{1, 9, 0, 1, 0, 0, 0, 7, 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ha.closed:
		if err == nil || !strings.Contains(err.Error(), "unexpected frame type 9") {
			t.Fatalf("link closed with %v, want a protocol error naming type 9", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a type-9 frame did not fail the link")
	}
	ha.mu.Lock()
	defer ha.mu.Unlock()
	if len(ha.data) != 0 || len(ha.acks) != 0 {
		t.Errorf("the retired frame was dispatched: data %v, acks %v", ha.data, ha.acks)
	}
}

// TestHelloGolden pins the exact version-5 bytes of one HELLO and one
// RESUME: a layout change must be a deliberate edit of these strings (and
// of helloVersion).
func TestHelloGolden(t *testing.T) {
	edges := testManifest(true)
	edges[0].noAck = true
	hello := "31495053" + "05" + "01" + "0201" + "8877665544332211" + "0200" +
		"0700" + "01" + "03" + "00040000" + "01" + "00000000" +
		"0900" + "00" + "00" + "10000000" + "00" + "04000000"
	if got := hex.EncodeToString(encodeHello(0x0102, 0x1122334455667788, edges, true)); got != hello {
		t.Errorf("HELLO layout changed:\n got %s\nwant %s", got, hello)
	}
	resume := "31495053" + "05" + "0201" + "8877665544332211" + "6300000000000000"
	if got := hex.EncodeToString(encodeResume(0x0102, 0x1122334455667788, 99)); got != resume {
		t.Errorf("RESUME layout changed:\n got %s\nwant %s", got, resume)
	}
	old := encodeResume(1, 2, 3)
	old[4] = 3
	if _, _, _, err := decodeResume(old); err == nil || !strings.Contains(err.Error(), "version 3") || !strings.Contains(err.Error(), "version 5") {
		t.Errorf("v3 RESUME: %v, want a refusal naming both versions", err)
	}
}

// FuzzDecodeHello: HELLO is the first untrusted input on every accepted
// connection. The decoder must never panic, and whatever it accepts must
// re-encode to the identical bytes — there is one layout.
func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeHello(0, 0, nil, false))
	f.Add(encodeHello(3, 0xfeedface, testManifest(true), true))
	f.Add(oldHello(3, testManifest(false)))
	f.Add(tamperedHello(4, 4))
	f.Add(tamperedHello(helloFixedBytes+3, 0xff))
	f.Fuzz(func(t *testing.T, body []byte) {
		node, token, edges, blocked, err := decodeHello(body)
		if err != nil {
			return
		}
		if re := encodeHello(node, token, edges, blocked); !bytes.Equal(re, body) {
			t.Fatalf("accepted hello is not canonical: %x re-encodes to %x", body, re)
		}
	})
}

// FuzzDecodeResume is FuzzDecodeHello for the other first frame an
// accepted connection may carry.
func FuzzDecodeResume(f *testing.F) {
	f.Add(encodeResume(3, 0xdeadbeef, 99))
	f.Add(encodeResume(0, 0, 0)[:10])
	f.Add(tamperedResume(4, 4))
	f.Fuzz(func(t *testing.T, body []byte) {
		node, token, recvSeq, err := decodeResume(body)
		if err != nil {
			return
		}
		if re := encodeResume(node, token, recvSeq); !bytes.Equal(re, body) {
			t.Fatalf("accepted resume is not canonical: %x re-encodes to %x", body, re)
		}
	})
}

// TestHandshakeFrameBound: a connection's first four bytes are a length
// prefix nobody has authenticated. One that claims a frame just under
// MaxFrame (16 MiB) and then stalls must be refused at once, naming the
// limit, before the accept path allocates anything of that size — it used
// to allocate the 16 MiB and wait out the handshake timeout.
func TestHandshakeFrameBound(t *testing.T) {
	tr := NewLoopback()
	ln, err := tr.Listen("bound")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accept := func() {
		c, err := tr.Dial("bound")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var prefix [4]byte
		binary.LittleEndian.PutUint32(prefix[:], DefaultMaxFrame-1)
		go c.Write(prefix[:]) // then silence
		sc, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = AcceptLink(sc, LinkConfig{Node: 1}, func(int) ([]EdgeDecl, Handler, error) {
			t.Error("lookup reached without a hello")
			return nil, nil, nil
		})
		if err == nil || !strings.Contains(err.Error(), "exceeds limit 851986") {
			t.Fatalf("oversized handshake frame: %v, want a refusal naming the limit", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("refused after %v, want at once (the handshake timeout is 5s)", d)
		}
	}
	alloctest.AtMost(t, "accepting a 16 MiB length prefix", alloctest.Min(3, accept), alloctest.Allocs{N: 1000, Bytes: 1 << 20})
}
