package transport

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"
)

// heartbeatPair is linkPair with heartbeat probing configured on both
// sides.
func heartbeatPair(t *testing.T, tr Transport, addr string, hd, ha Handler,
	interval, timeout time.Duration) (*Link, *Link) {
	t.Helper()
	tune := func(cfg *LinkConfig) { cfg.Heartbeat, cfg.PeerTimeout = interval, timeout }
	return batchLinkPair(t, tr, addr, tune, tune, hd, ha)
}

// TestHeartbeatProbesIdleLink: two idle links with heartbeats configured
// exchange PING/PONG, sample an RTT, and stay alive well past the peer
// timeout — silence from a live peer is not a failure.
func TestHeartbeatProbesIdleLink(t *testing.T) {
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := heartbeatPair(t, NewLoopback(), "hb-idle", hd, ha,
		10*time.Millisecond, 500*time.Millisecond)
	defer dialer.Abort()
	defer acceptor.Abort()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := dialer.Stats()
		if st.PingsSent > 0 && st.PongsReceived > 0 && dialer.Liveness().LastRTTMicros > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := dialer.Stats()
	if st.PingsSent == 0 || st.PongsReceived == 0 {
		t.Fatalf("idle link never probed: pings=%d pongs=%d", st.PingsSent, st.PongsReceived)
	}
	lv := dialer.Liveness()
	if !lv.HeartbeatOn || lv.State != "up" || lv.LastRTTMicros <= 0 {
		t.Fatalf("liveness = %+v, want heartbeat on, state up, positive RTT", lv)
	}
	if st.HeartbeatTimeouts != 0 {
		t.Fatalf("live peer produced %d heartbeat timeouts", st.HeartbeatTimeouts)
	}

	// The probed link must still carry traffic.
	msg := []byte{7, 0, 4, 0, 0, 0, 1, 2, 3, 4} // dynamic header + payload
	if err := dialer.SendData(7, msg); err != nil {
		t.Fatal(err)
	}
	msgs := ha.waitData(t, 7, 1)
	if !bytes.Equal(msgs[0], msg) {
		t.Fatalf("payload %x survived probing wrong", msgs[0])
	}
	select {
	case err := <-ha.closed:
		t.Fatalf("idle-but-alive link closed: %v", err)
	default:
	}
}

// TestHeartbeatProbesFollowTheirFrames: a probe carries the last sequence
// number its sender assigned, and its receiver reads a number past its own
// recvSeq as frames lost. So a probe must reach the wire after every frame
// up to that number, those a sender writes inline included. Senders stream
// frames on both sides of the inline threshold, pausing now and then so the
// sending end, which hears little, probes between them; with reconnection
// off, one probe ahead of its frames would fail the link.
func TestHeartbeatProbesFollowTheirFrames(t *testing.T) {
	sizes := []int{16, 1000, inlineWriteBytes - frameHeaderBytes, 20 << 10}
	const senders, perSender = 4, 150
	for name, tr := range transports() {
		t.Run(name, func(t *testing.T) {
			hd, ha := newRecordingHandler(), newRecordingHandler()
			dialer, acceptor := heartbeatPair(t, tr, testAddr(name), hd, ha, time.Millisecond, 10*time.Second)
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < perSender; i++ {
						msg := make([]byte, sizes[(s+i)%len(sizes)])
						msg[0] = 7
						binary.LittleEndian.PutUint32(msg[2:], uint32(len(msg)-6))
						if err := dialer.SendData(7, msg); err != nil {
							t.Errorf("sender %d frame %d: %v", s, i, err)
							return
						}
						if i%10 == 0 {
							time.Sleep(time.Millisecond) // let the pinger find the link silent
						}
					}
				}(s)
			}
			wg.Wait()
			ha.waitData(t, 7, senders*perSender)
			for _, h := range []*recordingHandler{hd, ha} {
				select {
				case err := <-h.closed:
					t.Fatalf("link closed mid-stream: %v", err)
				default:
				}
			}
			if dialer.Stats().PingsSent == 0 {
				t.Fatal("the sender never probed mid-stream")
			}
			closeBoth(dialer, acceptor)
		})
	}
}

// TestHeartbeatHalfOpenLinkDetected: a chaos stall black-holes one
// direction of the link after the handshake — the connection stays open,
// writes keep succeeding, nothing arrives. Only the peer's heartbeat
// timeout can tell this from an idle link; it must fire within 2x the
// configured peer timeout and fail the link with a liveness error.
func TestHeartbeatHalfOpenLinkDetected(t *testing.T) {
	const (
		interval = 25 * time.Millisecond
		timeout  = 300 * time.Millisecond
	)
	// StallAt 1: each connection's first post-handshake frame (HELLO is
	// write 0) black-holes it. MaxFaults 1 confines the stall to the
	// dialer's conn — the acceptor's writes still flow.
	ft := NewFaultTransport(NewLoopback(), FaultConfig{StallAt: 1, MaxFaults: 1})
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := heartbeatPair(t, ft, "hb-stall", hd, ha, interval, timeout)
	defer dialer.Abort()
	defer acceptor.Abort()

	// Trip the stall: this frame's write reports success but never arrives.
	if err := dialer.SendData(7, []byte{7, 0, 4, 0, 0, 0, 0xBB, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	waitFor(t, "the writer to hit the stall", func() bool { return ft.Stats().Stalls > 0 })
	if got := ft.Stats().Stalls; got != 1 {
		t.Fatalf("stall fault injected %d times, want 1", got)
	}

	// The acceptor now hears pure silence; its failure detector must
	// declare the peer dead within the contract bound.
	select {
	case err := <-ha.closed:
		elapsed := time.Since(start)
		if elapsed > 2*timeout {
			t.Fatalf("half-open link detected after %v, contract is 2x peer timeout (%v)", elapsed, 2*timeout)
		}
		if err == nil || !strings.Contains(err.Error(), "heartbeat timeout") {
			t.Fatalf("link failed with %v, want a heartbeat timeout liveness error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("half-open link never detected (acceptor stats: %+v)", acceptor.Stats())
	}
	if acceptor.Stats().HeartbeatTimeouts == 0 {
		t.Error("heartbeat timeout fired but the counter stayed zero")
	}
}

// TestChaosStallSpec: the stallat key parses, and a stalled connection
// keeps reporting write success while delivering nothing.
func TestChaosStallSpec(t *testing.T) {
	cfg, err := ParseFaultSpec("stallat=5,maxfaults=1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StallAt != 5 || cfg.MaxFaults != 1 {
		t.Fatalf("parsed %+v, want StallAt=5 MaxFaults=1", cfg)
	}
}

// FuzzDecodePing fuzzes the PING/PONG body decoder: arbitrary bodies
// must never panic, whatever it accepts re-encodes to the same bytes, and
// a well-formed timestamp and sequence number round-trip through the frame
// encoder and reader bit-identically for both frame types.
func FuzzDecodePing(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(1), uint64(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint64(1<<63), uint64(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0}, uint64(1234567890), uint64(1<<40))
	f.Fuzz(func(t *testing.T, body []byte, ts, sendSeq uint64) {
		if gotTS, gotSeq, err := decodePing(body); err == nil {
			if len(body) != pingBodyBytes {
				t.Fatalf("decodePing accepted a %d-byte body", len(body))
			}
			var back [pingBodyBytes]byte
			encodePing(back[:], gotTS, gotSeq)
			if !bytes.Equal(back[:], body) {
				t.Fatalf("decode/encode not inverse: %x -> %d,%d -> %x", body, gotTS, gotSeq, back)
			}
		}
		for _, typ := range []byte{framePing, framePong} {
			var enc [pingBodyBytes]byte
			encodePing(enc[:], ts, sendSeq)
			var reader frameReader
			rtyp, seq, got, err := reader.read(bytes.NewReader(appendFrame(nil, typ, 0, nil, enc[:])))
			if err != nil {
				t.Fatalf("reading back a built %d frame: %v", typ, err)
			}
			if rtyp != typ || seq != 0 {
				t.Fatalf("frame read back as type %d seq %d", rtyp, seq)
			}
			backTS, backSeq, err := decodePing(got)
			if err != nil {
				t.Fatalf("decoding a well-formed ping body: %v", err)
			}
			if backTS != ts || backSeq != sendSeq {
				t.Fatalf("probe round-tripped as %d,%d, want %d,%d", backTS, backSeq, ts, sendSeq)
			}
		}
	})
}
