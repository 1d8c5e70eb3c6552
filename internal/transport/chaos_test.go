package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// chaosLinkPair builds a dialer/acceptor pair over a FaultTransport with
// reconnection enabled and the listener kept open so severed connections
// can be re-dialed. The accept loop routes RESUME connections back to the
// established link via AcceptConn.
func chaosLinkPair(t *testing.T, ft *FaultTransport, hd, ha Handler) (*Link, *Link, func()) {
	t.Helper()
	ln, err := ft.Listen("chaos")
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
			l, err := AcceptConn(c, LinkConfig{Node: 1, Reconnect: rc},
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
	c, err := ft.Dial("chaos")
	if err != nil {
		t.Fatal(err)
	}
	dialer, err := NewLink(c, LinkConfig{
		Node: 0, Edges: testManifest(true),
		Reconnect: rc,
		Redial:    func() (Conn, error) { return ft.Dial("chaos") },
	}, hd)
	if err != nil {
		t.Fatal(err)
	}
	acceptor := <-accepted
	return dialer, acceptor, func() { ln.Close() }
}

// TestChaosLinkDeliversExactly drives a numbered payload stream through a
// faulty transport and asserts the receiver observes every message exactly
// once, in order — drops, duplicates, corruptions, and deterministic
// severs all repaired by the RESUME replay.
func TestChaosLinkDeliversExactly(t *testing.T) {
	schedules := []struct {
		name string
		cfg  FaultConfig
	}{
		{"drops", FaultConfig{Seed: 1, Drop: 0.05, SkipFrames: 4, MaxFaults: 40}},
		{"corruption", FaultConfig{Seed: 2, Corrupt: 0.05, SkipFrames: 4, MaxFaults: 40}},
		{"duplicates", FaultConfig{Seed: 3, Duplicate: 0.10, SkipFrames: 4, MaxFaults: 40}},
		{"severs", FaultConfig{Seed: 4, SeverAt: []int{9, 23, 57}, SkipFrames: 4}},
		{"everything", FaultConfig{Seed: 5, Drop: 0.03, Corrupt: 0.02, Duplicate: 0.05,
			Delay: 0.05, DelayFor: time.Millisecond, Sever: 0.01, SkipFrames: 4, MaxFaults: 60}},
	}
	const n = 400
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			ft := NewFaultTransport(NewLoopback(), sc.cfg)
			hd, ha := newRecordingHandler(), newRecordingHandler()
			dialer, acceptor, stop := chaosLinkPair(t, ft, hd, ha)
			defer stop()
			for i := 0; i < n; i++ {
				msg := make([]byte, 10)
				msg[0] = 7
				binary.LittleEndian.PutUint32(msg[2:], 4)
				binary.LittleEndian.PutUint32(msg[6:], uint32(i))
				if err := dialer.SendData(7, msg); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			got := ha.waitData(t, 7, n)
			if len(got) != n {
				t.Fatalf("received %d messages, want %d", len(got), n)
			}
			for i, msg := range got {
				if want := uint32(i); binary.LittleEndian.Uint32(msg[6:]) != want {
					t.Fatalf("message %d carries payload %d (out of order or lost)",
						i, binary.LittleEndian.Uint32(msg[6:]))
				}
			}
			closeBoth(dialer, acceptor)
			if st := ft.Stats(); st.Drops+st.Duplicates+st.Corruptions+st.Severs+st.Delays == 0 && sc.name != "severs" {
				t.Logf("schedule %s injected no faults (seed too gentle?)", sc.name)
			}
			if st := dialer.Stats(); st.DuplicatesDropped > 0 || st.Resumes > 0 {
				t.Logf("dialer: %d resumes, %d retransmits, %d dups dropped",
					st.Resumes, st.Retransmits, st.DuplicatesDropped)
			}
		})
	}
}

// TestChaosBidirectional exchanges traffic both directions (DATA one way,
// DATA+ACK the other) under severs, checking both streams survive intact.
func TestChaosBidirectional(t *testing.T) {
	ft := NewFaultTransport(NewLoopback(), FaultConfig{Seed: 11, SeverAt: []int{15, 40}, SkipFrames: 4})
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor, stop := chaosLinkPair(t, ft, hd, ha)
	defer stop()
	const n = 100
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			msg := []byte{9, 0, byte(i), byte(i >> 8)}
			if err := acceptor.SendData(9, msg); err != nil {
				errCh <- fmt.Errorf("acceptor send %d: %v", i, err)
				return
			}
		}
		errCh <- nil
	}()
	for i := 0; i < n; i++ {
		msg := make([]byte, 8)
		msg[0] = 7
		binary.LittleEndian.PutUint32(msg[2:], 2)
		binary.LittleEndian.PutUint16(msg[6:], uint16(i))
		if err := dialer.SendData(7, msg); err != nil {
			t.Fatalf("dialer send %d: %v", i, err)
		}
		if i%10 == 9 {
			if err := acceptor.SendAck(7, 10); err != nil {
				t.Fatalf("ack %d: %v", i, err)
			}
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	fwd := ha.waitData(t, 7, n)
	back := hd.waitData(t, 9, n)
	for i := 0; i < n; i++ {
		if got := binary.LittleEndian.Uint16(fwd[i][6:]); got != uint16(i) {
			t.Fatalf("forward stream message %d carries %d", i, got)
		}
		if want := []byte{9, 0, byte(i), byte(i >> 8)}; !bytes.Equal(back[i], want) {
			t.Fatalf("backward stream message %d = %x, want %x", i, back[i], want)
		}
	}
	hd.waitAcks(t, 7, n)
	closeBoth(dialer, acceptor)
}

// TestChaosReconnectExhaustion denies all re-dials after the first
// connection, so a sever must exhaust the reconnect budget and fail the
// link with a close error instead of hanging.
func TestChaosReconnectExhaustion(t *testing.T) {
	ft := NewFaultTransport(NewLoopback(), FaultConfig{Seed: 21, SeverAt: []int{8}, SkipFrames: 4, DenyDialsAfter: 1})
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor, stop := chaosLinkPair(t, ft, hd, ha)
	defer stop()
	msg := []byte{7, 0, 2, 0, 0, 0, 1, 2}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if err := dialer.SendData(7, msg); err != nil {
			break // link failed: expected once recovery is exhausted
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-hd.closed:
		if err == nil {
			t.Fatal("exhausted reconnects should report an error")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("link never reported failure after reconnects were exhausted")
	}
	dialer.Close()
	acceptor.Close()
}

// stallingHandler holds HandleLinkClose until released.
type stallingHandler struct {
	*recordingHandler
	entered, release chan struct{}
}

func (h *stallingHandler) HandleLinkClose(err error) {
	close(h.entered)
	<-h.release
	h.recordingHandler.HandleLinkClose(err)
}

// TestChaosGiveUpNotifiesBeforeRelease: when reconnects are exhausted, the
// handler must have been told of the failure before a sender parked in
// SendData is released. With the handler stalled inside HandleLinkClose the
// sender therefore stays parked; it used to be released first, and a
// degraded run that unwound through it reported no dead peer.
func TestChaosGiveUpNotifiesBeforeRelease(t *testing.T) {
	ft := NewFaultTransport(NewLoopback(), FaultConfig{Seed: 21, SeverAt: []int{8}, SkipFrames: 4, DenyDialsAfter: 1})
	hd := &stallingHandler{recordingHandler: newRecordingHandler(),
		entered: make(chan struct{}), release: make(chan struct{})}
	dialer, acceptor, stop := chaosLinkPair(t, ft, hd, newRecordingHandler())
	defer stop()
	sendFailed := make(chan error, 1)
	go func() {
		msg := []byte{7, 0, 2, 0, 0, 0, 1, 2}
		for {
			if err := dialer.SendData(7, msg); err != nil {
				sendFailed <- err
				return
			}
		}
	}()
	select {
	case <-hd.entered:
	case <-time.After(20 * time.Second):
		t.Fatal("link never reported failure after reconnects were exhausted")
	}
	select {
	case err := <-sendFailed:
		t.Fatalf("sender released (%v) while the handler was still learning of the failure", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(hd.release)
	select {
	case <-sendFailed:
	case <-time.After(20 * time.Second):
		t.Fatal("sender still parked after the link failed")
	}
	if err := <-hd.closed; err == nil {
		t.Fatal("exhausted reconnects should report an error")
	}
	dialer.Abort()
	acceptor.Abort() // a Close would wait its whole timeout for the dead peer's GOODBYE
}

// TestChaosFailFastZeroValue checks the zero-value reconnect policy keeps
// the old behavior: the first sever kills the link with an error.
func TestChaosFailFastZeroValue(t *testing.T) {
	ft := NewFaultTransport(NewLoopback(), FaultConfig{Seed: 31, SeverAt: []int{6}, SkipFrames: 4})
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := linkPair(t, ft, "ff", hd, ha)
	msg := []byte{7, 0, 2, 0, 0, 0, 5, 6}
	deadline := time.Now().Add(10 * time.Second)
	var sendErr error
	for sendErr == nil && time.Now().Before(deadline) {
		sendErr = dialer.SendData(7, msg)
		time.Sleep(time.Millisecond)
	}
	if sendErr == nil {
		t.Fatal("sever with fail-fast policy should surface a send error")
	}
	dialer.Close()
	acceptor.Close()
}

// TestParseFaultSpec covers the -chaos flag grammar.
func TestParseFaultSpec(t *testing.T) {
	cfg, err := ParseFaultSpec("seed=7,drop=0.01,dup=0.02,corrupt=0.03,delay=0.5,delayms=3,sever=0.001,severat=5;9,skip=4,maxfaults=100,denydials=2")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Drop != 0.01 || cfg.Duplicate != 0.02 || cfg.Corrupt != 0.03 ||
		cfg.Delay != 0.5 || cfg.DelayFor != 3*time.Millisecond || cfg.Sever != 0.001 ||
		len(cfg.SeverAt) != 2 || cfg.SeverAt[1] != 9 || cfg.SkipFrames != 4 ||
		cfg.MaxFaults != 100 || cfg.DenyDialsAfter != 2 {
		t.Fatalf("parsed %+v", cfg)
	}
	for _, bad := range []string{"", "drop", "drop=x", "bogus=1"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Fatalf("spec %q should fail to parse", bad)
		}
	}
}

// sinkConn is the inner connection of a faultConn under test: it keeps what
// reaches it.
type sinkConn struct {
	Conn
	got    bytes.Buffer
	closed bool
}

func (c *sinkConn) Write(p []byte) (int, error) { return c.got.Write(p) }
func (c *sinkConn) Close() error                { c.closed = true; return nil }
func (c *sinkConn) RemoteAddr() string          { return "sink" }

// frames encodes one frame per type byte, numbered frames in sequence.
func testFrames(types ...byte) []byte {
	var wire []byte
	seq := uint64(0)
	for i, typ := range types {
		n := uint64(0)
		if numberedFrame(typ) {
			seq++
			n = seq
		}
		wire = appendFrame(wire, typ, n, nil, bytes.Repeat([]byte{byte(i)}, 2+i%5))
	}
	return wire
}

// TestChaosFaultsPerFrame: the wrapper applies its schedule to each frame
// of a coalesced Write by the frame's own ordinal and type. The same frames
// draw the same faults whether they arrive in one Write or one each; a sever
// at frame k delivers the frames before it; probes stay outside the count.
func TestChaosFaultsPerFrame(t *testing.T) {
	types := []byte{frameHello, frameData, framePing, frameAck, frameCumAck, frameData, framePong, frameData, frameFin, frameData}
	whole := testFrames(types...)
	var each [][]byte
	for off := 0; off < len(whole); off = frameEnd(whole, off) {
		each = append(each, whole[off:frameEnd(whole, off)])
	}
	run := func(cfg FaultConfig, writes [][]byte) (*sinkConn, FaultStats, error) {
		ft := NewFaultTransport(NewLoopback(), cfg)
		sink := &sinkConn{}
		c := ft.newConn(sink)
		var err error
		for _, w := range writes {
			if _, err = c.Write(w); err != nil {
				break
			}
		}
		return sink, ft.Stats(), err
	}
	for _, cfg := range []FaultConfig{
		{Seed: 3, Drop: 0.3, Duplicate: 0.3, Corrupt: 0.3, SkipFrames: 1},
		{Seed: 9, Drop: 0.5, SkipFrames: 2, MaxFaults: 2},
		{Seed: 1, SeverAt: []int{5}, SkipFrames: 1},
		{Seed: 1, StallAt: 4, MaxFaults: 1},
	} {
		one, oneStats, oneErr := run(cfg, [][]byte{whole})
		many, manyStats, manyErr := run(cfg, each)
		if !bytes.Equal(one.got.Bytes(), many.got.Bytes()) || oneStats != manyStats || (oneErr == nil) != (manyErr == nil) {
			t.Errorf("%+v: one coalesced write delivered %d bytes (%+v, err %v), one write per frame %d bytes (%+v, err %v)",
				cfg, one.got.Len(), oneStats, oneErr, many.got.Len(), manyStats, manyErr)
		}
	}
	// Sever at ordinal 5 — PING and PONG do not count, so that is the third
	// DATA frame (index 7): everything before it arrives, nothing after.
	sink, stats, err := run(FaultConfig{SeverAt: []int{5}}, [][]byte{whole})
	want := testFrames(types[:7]...)
	if err == nil || stats.Severs != 1 || !sink.closed || !bytes.Equal(sink.got.Bytes(), want) {
		t.Errorf("sever at frame 5: err %v, %d severs, closed %v, %d bytes delivered, want the first seven frames (%d bytes)",
			err, stats.Severs, sink.closed, sink.got.Len(), len(want))
	}
}

// FuzzFaultConnFrames: any concatenation of valid frames passes a fault-free
// wrapper byte-identical, however it is cut into writes, and with drop = 1
// exactly the unnumbered frames arrive.
func FuzzFaultConnFrames(f *testing.F) {
	f.Add([]byte{frameData, frameAck, frameCumAck, framePing}, uint8(2))
	f.Add([]byte{frameHello}, uint8(0))
	f.Add([]byte{frameFin, frameGoodbye, frameResumeOK, frameCtrl, framePong, frameSData}, uint8(7))
	f.Fuzz(func(t *testing.T, types []byte, cut uint8) {
		if len(types) > 64 {
			types = types[:64]
		}
		wire := testFrames(types...)
		var unnumbered []byte
		for off := 0; off < len(wire); off = frameEnd(wire, off) {
			if !numberedFrame(wire[off+4]) {
				unnumbered = append(unnumbered, wire[off:frameEnd(wire, off)]...)
			}
		}
		// Cut into writes at frame boundaries, every cut+1 frames.
		var writes [][]byte
		start, n := 0, 0
		for off := 0; off < len(wire); {
			off = frameEnd(wire, off)
			if n++; n%(int(cut)+1) == 0 || off == len(wire) {
				writes = append(writes, wire[start:off])
				start = off
			}
		}
		for _, tc := range []struct {
			cfg  FaultConfig
			want []byte
		}{
			{FaultConfig{Seed: 5}, wire},
			{FaultConfig{Seed: 5, Drop: 1}, unnumbered},
		} {
			sink := &sinkConn{}
			c := NewFaultTransport(NewLoopback(), tc.cfg).newConn(sink)
			for _, w := range writes {
				if n, err := c.Write(w); err != nil || n != len(w) {
					t.Fatalf("%+v: Write = %d, %v", tc.cfg, n, err)
				}
			}
			if !bytes.Equal(sink.got.Bytes(), tc.want) {
				t.Fatalf("%+v: %d bytes arrived, want %d", tc.cfg, sink.got.Len(), len(tc.want))
			}
		}
	})
}
