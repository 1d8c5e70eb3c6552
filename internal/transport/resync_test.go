package transport

import (
	"encoding/binary"
	"testing"
)

// TestResyncSuppressesAcks: with edge 7 in both sides' suppression sets,
// the receiver's SendAck calls for it are swallowed before they reach the
// wire — the sender's handler never sees an ack — while edge 9,
// outside the set, still acks normally. The two node-wide sets differ in
// the IDs this link does not carry (a node's other links' edges): the
// handshake compares the per-link part only.
func TestResyncSuppressesAcks(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			hd, ha := newRecordingHandler(), newRecordingHandler()
			dialer, acceptor := batchLinkPair(t, tr, testAddr(name),
				func(cfg *LinkConfig) { cfg.ResyncEdges = []uint16{7, 200} },
				func(cfg *LinkConfig) { cfg.ResyncEdges = []uint16{300, 7} }, hd, ha)
			defer closeBoth(dialer, acceptor)

			msg := []byte{7, 0, 4, 0, 0, 0, 1, 2, 3, 4}
			for i := 0; i < 3; i++ {
				if err := dialer.SendData(7, msg); err != nil {
					t.Fatal(err)
				}
			}
			ha.waitData(t, 7, 3)
			for i := 0; i < 3; i++ {
				if err := acceptor.SendAck(7, 1); err != nil {
					t.Fatal(err)
				}
			}

			// Edge 9 (acceptor -> dialer) stays on the full-ack protocol;
			// its ack doubles as a barrier proving the suppressed acks had
			// every chance to arrive.
			if err := acceptor.SendData(9, []byte{9, 0, 0xaa, 0xbb}); err != nil {
				t.Fatal(err)
			}
			hd.waitData(t, 9, 1)
			if err := dialer.SendAck(9, 1); err != nil {
				t.Fatal(err)
			}
			ha.waitAcks(t, 9, 1)

			hd.mu.Lock()
			leaked := hd.acks[7]
			hd.mu.Unlock()
			if leaked != 0 {
				t.Fatalf("%d acks for the suppressed edge reached the sender", leaked)
			}
			st := acceptor.Stats()
			if st.AcksSuppressed != 3 {
				t.Errorf("AcksSuppressed = %d, want 3", st.AcksSuppressed)
			}
			if st.AcksSent != 0 {
				t.Errorf("suppressed acks leaked to the wire: %d ACK frames", st.AcksSent)
			}
			if got := acceptor.SuppressedAcks()[7]; got != 3 {
				t.Errorf("SuppressedAcks()[7] = %d, want 3", got)
			}
		})
	}
}

// TestResyncChaosSeverResume severs every connection mid-stream with
// suppression on: every message must still arrive exactly once, and no ack
// for the suppressed edge may surface on either the wire or the sender's
// handler — a RESUME resumes a link whose manifest was already verified,
// and its replay must not resurrect acks.
func TestResyncChaosSeverResume(t *testing.T) {
	// Write 0 of a connection is its HELLO or RESUME and the dialer's other
	// writes are DATA, so 13 and 41 sever mid-stream on every connection.
	ft := NewFaultTransport(NewLoopback(), FaultConfig{Seed: 9, SeverAt: []int{13, 41}, SkipFrames: 4})
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor, stop := batchChaosPair(t, ft, func(cfg *LinkConfig) { cfg.ResyncEdges = []uint16{7} }, hd, ha)
	defer stop()
	defer closeBoth(dialer, acceptor)

	const n = 120
	for i := 0; i < n; i++ {
		msg := make([]byte, 10)
		msg[0] = 7
		binary.LittleEndian.PutUint32(msg[2:], 4)
		binary.LittleEndian.PutUint32(msg[6:], uint32(i))
		if err := dialer.SendData(7, msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if err := acceptor.SendAck(7, 1); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	got := ha.waitData(t, 7, n)
	for i, msg := range got {
		if want := uint32(i); binary.LittleEndian.Uint32(msg[6:]) != want {
			t.Fatalf("message %d carries payload %d", i, binary.LittleEndian.Uint32(msg[6:]))
		}
	}
	if st := dialer.Stats(); st.Resumes == 0 {
		t.Fatal("no resumes happened; the sever schedule never fired")
	}
	hd.mu.Lock()
	leaked := hd.acks[7]
	hd.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d suppressed acks resurrected across the resume", leaked)
	}
	st := acceptor.Stats()
	if st.AcksSent != 0 {
		t.Fatalf("suppressed acks leaked to the wire after resume: %d ACK frames", st.AcksSent)
	}
	if st.AcksSuppressed == 0 {
		t.Fatal("no acks recorded as suppressed")
	}
}
