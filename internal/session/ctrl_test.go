package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestSessionCtrlRoundTrip drives the session lifecycle over CTRL frames on
// every carrier: two OPENs reach the server's mux in order with their
// tenants, each verdict reaches the stream that asked (one admitted, one
// refused with a typed OpenError), and a CLOSE reaches the admitted stream
// with its outcome.
func TestSessionCtrlRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   transport.Transport
		addr string
	}{
		{"loopback", transport.NewLoopback(), "ctrl"},
		{"tcp", &transport.TCP{}, "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, m := testGraph()
			clientMux, serverMux, h := linkMuxes(t, tc.tr, tc.addr, g, m, 0, true)
			defer func() {
				h.dialer.Abort()
				h.acceptor.Abort()
				h.ln.Close()
			}()
			opens := make(chan string, 2)
			serverMux.SetOnOpen(func(_ *Mux, sid uint32, tenant string) { opens <- fmt.Sprintf("%d/%s", sid, tenant) })
			client := NewClient(clientMux, 5*time.Second)
			type opened struct {
				s   *Stream
				err error
			}
			results := make(chan opened, 2)
			for _, want := range []string{"1/alice", "2/bob"} {
				tenant := want[2:]
				go func() {
					s, err := client.Open(tenant)
					results <- opened{s, err}
				}()
				if got := <-opens; got != want {
					t.Fatalf("open arrived as %q, want %q", got, want)
				}
			}
			if err := serverMux.SendOpenOK(2, StatusRejectedQuota); err != nil {
				t.Fatal(err)
			}
			var oe *OpenError
			if r := <-results; !errors.As(r.err, &oe) || oe.Status != StatusRejectedQuota {
				t.Fatalf("bob's open: %v, want a quota rejection", r.err)
			}
			if err := serverMux.SendOpenOK(1, StatusAdmitted); err != nil {
				t.Fatal(err)
			}
			r := <-results
			if r.err != nil || r.s.SID() != 1 {
				t.Fatalf("alice's open: %v", r.err)
			}
			if err := serverMux.SendClose(1, CloseShed); err != nil {
				t.Fatal(err)
			}
			if status, err := r.s.AwaitClose(5 * time.Second); err != nil || status != CloseShed {
				t.Fatalf("close verdict %s, %v; want shed", closeString(status), err)
			}
		})
	}
}

// TestServeRefusesTakenSessionID: an OPEN for a session ID already live on
// the link, or for ID 0 (the link's untagged run), is refused with
// StatusRejectedID and takes nothing over — the live session still
// completes, bit-identical to the local reference.
func TestServeRefusesTakenSessionID(t *testing.T) {
	const iters = 10
	ref := localReference(t, iters)
	h := startServe(t, transport.NewLoopback(), "srv-ids", ServerConfig{Iterations: iters}, true)
	defer h.stop()
	s, err := h.client.Open("alice")
	if err != nil {
		t.Fatal(err)
	}
	// A stream registered under ID 0 catches the verdict for that ID, which
	// no real stream can have.
	zero := newStream(h.client.mux, 0, serverNode)
	h.client.mux.mu.Lock()
	h.client.mux.streams[0] = zero
	h.client.mux.mu.Unlock()
	for _, st := range []*Stream{s, zero} {
		open := append(binary.LittleEndian.AppendUint32(nil, st.SID()), "mallory"...)
		if err := h.dialer.SendCtrl(opOpen, open); err != nil {
			t.Fatal(err)
		}
		select {
		case status := <-st.openCh:
			if status != StatusRejectedID {
				t.Fatalf("repeated OPEN for session %d: %s, want %s", st.SID(), StatusString(status), StatusString(StatusRejectedID))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("repeated OPEN for session %d got no verdict", st.SID())
		}
	}
	sink, status, err := h.runStream(s)
	if err != nil || status != CloseDone || !samePayloads(sink, ref) {
		t.Fatalf("live session after the refused OPENs: status %s, err %v, matches reference %v", closeString(status), err, samePayloads(sink, ref))
	}
	snap := waitSnapshot(t, h.srv, "completion", func(sn Snapshot) bool { return sn.Completed == 1 && sn.Live == 0 })
	if snap.Admitted != 1 || snap.Rejected != 2 {
		t.Fatalf("snapshot %+v, want 1 admitted and 2 rejected", snap)
	}
}

// FuzzDecodeSessionFrame fuzzes the session lifecycle's CTRL codec: no
// payload panics the decoder, whatever it accepts re-encodes to the same
// bytes, and a well-formed OPEN, OPENOK and CLOSE built from the fuzz input
// round-trip.
func FuzzDecodeSessionFrame(f *testing.F) {
	f.Add(opOpen, []byte{1, 0, 0, 0, 'a', 'l', 'i', 'c', 'e'}, uint32(1), byte(0), "tenant")
	f.Add(opOpenOK, []byte{}, uint32(0), byte(StatusRejectedID), "")
	f.Add(opClose, []byte{1, 0, 0, 0, 255, 255}, uint32(0xfeedbeef), byte(CloseError), "x")
	f.Add(byte(9), []byte{9, 0, 0, 0, 7}, uint32(9), byte(1), "spiload-0")
	f.Fuzz(func(t *testing.T, op byte, payload []byte, sid uint32, status byte, tenant string) {
		if m, err := decodeCtrl(op, payload); err == nil {
			if re := appendCtrl(nil, m); m.op != op || !bytes.Equal(re, payload) {
				t.Fatalf("accepted op %d payload %x is not canonical: re-encodes to op %d payload %x", op, payload, m.op, re)
			}
		}
		if len(tenant) > maxTenantBytes {
			tenant = tenant[:maxTenantBytes]
		}
		for _, want := range []ctrlMsg{
			{op: opOpen, sid: sid, tenant: tenant},
			{op: opOpenOK, sid: sid, status: status},
			{op: opClose, sid: sid, status: status},
		} {
			if got, err := decodeCtrl(want.op, appendCtrl(nil, want)); err != nil || got != want {
				t.Fatalf("%+v round-tripped as %+v, %v", want, got, err)
			}
		}
	})
}
