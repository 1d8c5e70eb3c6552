package transport

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// ctrlRecorder records control-plane traffic alongside the untagged kind
// it embeds.
type ctrlRecorder struct {
	*recordingHandler
	mu   sync.Mutex
	msgs []ctrlMsg
}

type ctrlMsg struct {
	op      byte
	payload []byte
}

func newCtrlRecorder() *ctrlRecorder {
	return &ctrlRecorder{recordingHandler: newRecordingHandler()}
}

func (h *ctrlRecorder) HandleCtrl(op byte, payload []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := make([]byte, len(payload))
	copy(cp, payload)
	h.msgs = append(h.msgs, ctrlMsg{op, cp})
}

func (h *ctrlRecorder) wait(t *testing.T, n int) []ctrlMsg {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		got := len(h.msgs)
		h.mu.Unlock()
		if got >= n {
			h.mu.Lock()
			defer h.mu.Unlock()
			return append([]ctrlMsg(nil), h.msgs...)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d ctrl messages", n)
	return nil
}

// ctrlLinkPair builds a link pair with — unlike the data-plane pairs — an
// empty edge manifest: control links between a coordinator and its
// workers carry no SPI edges at all.
func ctrlLinkPair(t *testing.T, tr Transport, hd, ha Handler) (*Link, *Link) {
	t.Helper()
	addr := "ctrl"
	if tr.Name() == "tcp" {
		addr = "127.0.0.1:0"
	}
	noEdges := func(cfg *LinkConfig) { cfg.Edges = nil }
	return batchLinkPair(t, tr, addr, noEdges, noEdges, hd, ha)
}

// TestCtrlRoundTrip sends control messages both directions over both
// byte carriers on an edge-free link, checking opcode and payload arrive
// intact and in order.
func TestCtrlRoundTrip(t *testing.T) {
	for name, tr := range transports() {
		t.Run(name, func(t *testing.T) {
			hd, ha := newCtrlRecorder(), newCtrlRecorder()
			d, a := ctrlLinkPair(t, tr, hd, ha)
			defer closeBoth(d, a)
			for i := 0; i < 3; i++ {
				if err := d.SendCtrl(byte(i+1), []byte{0xAB, byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.SendCtrl(9, nil); err != nil {
				t.Fatal(err)
			}
			got := ha.wait(t, 3)
			for i, m := range got[:3] {
				if m.op != byte(i+1) || !bytes.Equal(m.payload, []byte{0xAB, byte(i)}) {
					t.Fatalf("message %d = op %d payload %x", i, m.op, m.payload)
				}
			}
			back := hd.wait(t, 1)
			if back[0].op != 9 || len(back[0].payload) != 0 {
				t.Fatalf("reply = op %d payload %x", back[0].op, back[0].payload)
			}
		})
	}
}

// TestCtrlPayloadBound rejects oversized control payloads at the sender,
// before they reach the wire.
func TestCtrlPayloadBound(t *testing.T) {
	hd, ha := newCtrlRecorder(), newCtrlRecorder()
	d, a := ctrlLinkPair(t, NewLoopback(), hd, ha)
	defer closeBoth(d, a)
	if err := d.SendCtrl(1, make([]byte, MaxCtrlPayload+1)); err == nil {
		t.Fatal("oversized ctrl payload accepted")
	}
}
