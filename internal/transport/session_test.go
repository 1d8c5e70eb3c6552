package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// sessionRecorder records session-tagged traffic alongside the untagged
// kind it embeds.
type sessionRecorder struct {
	*recordingHandler
	mu     sync.Mutex
	opens  []string // "sid/tenant"
	openOK map[uint32]byte
	closes map[uint32]byte
	data   map[uint32]map[uint16][][]byte
	acks   map[uint32]map[uint16]uint32
	fins   map[uint32]map[uint16]int
}

func newSessionRecorder() *sessionRecorder {
	return &sessionRecorder{
		recordingHandler: newRecordingHandler(),
		openOK:           map[uint32]byte{},
		closes:           map[uint32]byte{},
		data:             map[uint32]map[uint16][][]byte{},
		acks:             map[uint32]map[uint16]uint32{},
		fins:             map[uint32]map[uint16]int{},
	}
}

func (h *sessionRecorder) HandleSessionOpen(sid uint32, tenant string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.opens = append(h.opens, fmt.Sprintf("%d/%s", sid, tenant))
}

func (h *sessionRecorder) HandleSessionOpenOK(sid uint32, status byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.openOK[sid] = status
}

func (h *sessionRecorder) HandleSessionClose(sid uint32, status byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closes[sid] = status
}

func (h *sessionRecorder) HandleSessionData(sid uint32, edge uint16, msg []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.data[sid] == nil {
		h.data[sid] = map[uint16][][]byte{}
	}
	cp := make([]byte, len(msg))
	copy(cp, msg)
	h.data[sid][edge] = append(h.data[sid][edge], cp)
}

func (h *sessionRecorder) HandleSessionAck(sid uint32, edge uint16, count uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.acks[sid] == nil {
		h.acks[sid] = map[uint16]uint32{}
	}
	h.acks[sid][edge] += count
}

func (h *sessionRecorder) HandleSessionFin(sid uint32, edge uint16) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fins[sid] == nil {
		h.fins[sid] = map[uint16]int{}
	}
	h.fins[sid][edge]++
}

func (h *sessionRecorder) wait(t *testing.T, what string, ready func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		ok := ready()
		h.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// sessionLinkPair is linkPair for session handlers, with the Sessions
// assertion set on both sides.
func sessionLinkPair(t *testing.T, tr Transport, hd, ha Handler) (*Link, *Link) {
	t.Helper()
	addr := "sess"
	if tr.Name() == "tcp" {
		addr = "127.0.0.1:0"
	}
	sessions := func(cfg *LinkConfig) { cfg.Sessions = true }
	return batchLinkPair(t, tr, addr, sessions, sessions, hd, ha)
}

// TestSessionRoundTrip drives the whole tagged lifecycle over both
// transports: OPEN/OPENOK, interleaved tagged data+acks for two sessions
// plus untagged traffic for the implicit one, FIN, CLOSE.
func TestSessionRoundTrip(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			hd, ha := newSessionRecorder(), newSessionRecorder()
			d, a := sessionLinkPair(t, tr, hd, ha)
			defer closeBoth(d, a)

			if err := d.SendSessionOpen(1, "alice"); err != nil {
				t.Fatal(err)
			}
			if err := d.SendSessionOpen(2, "bob"); err != nil {
				t.Fatal(err)
			}
			ha.wait(t, "opens", func() bool { return len(ha.opens) == 2 })
			if ha.opens[0] != "1/alice" || ha.opens[1] != "2/bob" {
				t.Fatalf("opens arrived as %v", ha.opens)
			}
			if err := a.SendSessionOpenOK(1, 0); err != nil {
				t.Fatal(err)
			}
			if err := a.SendSessionOpenOK(2, 2); err != nil {
				t.Fatal(err)
			}
			hd.wait(t, "open verdicts", func() bool { return len(hd.openOK) == 2 })
			if hd.openOK[1] != 0 || hd.openOK[2] != 2 {
				t.Fatalf("verdicts %v", hd.openOK)
			}

			// Tagged data on sessions 1 and 2, untagged on the implicit
			// session, all interleaved on edge 7 (outbound for the dialer).
			msg := func(tag byte) []byte { return []byte{7, 0, tag, tag} }
			if err := d.SendSessionData(1, 7, msg(0xa1)); err != nil {
				t.Fatal(err)
			}
			if err := d.SendData(7, msg(0x01)); err != nil {
				t.Fatal(err)
			}
			if err := d.SendSessionData(2, 7, msg(0xb2)); err != nil {
				t.Fatal(err)
			}
			ha.wait(t, "tagged data", func() bool {
				return len(ha.data[1][7]) == 1 && len(ha.data[2][7]) == 1
			})
			ha.recordingHandler.waitData(t, 7, 1)
			if got := ha.data[1][7][0]; !bytes.Equal(got, msg(0xa1)) {
				t.Fatalf("session 1 data = %x", got)
			}
			if got := ha.data[2][7][0]; !bytes.Equal(got, msg(0xb2)) {
				t.Fatalf("session 2 data = %x", got)
			}

			if err := a.SendSessionAck(1, 7, 3); err != nil {
				t.Fatal(err)
			}
			hd.wait(t, "tagged ack", func() bool { return hd.acks[1][7] == 3 })
			if err := a.SendSessionFin(2, 7); err != nil {
				t.Fatal(err)
			}
			hd.wait(t, "tagged fin", func() bool { return hd.fins[2][7] == 1 })

			if err := a.SendSessionClose(2, 1); err != nil {
				t.Fatal(err)
			}
			hd.wait(t, "close", func() bool { return hd.closes[2] == 1 })
		})
	}
}

// TestSessionUndeclaredEdge checks that a tagged frame for an edge
// outside the manifest is rejected on both the send and receive side.
func TestSessionUndeclaredEdge(t *testing.T) {
	hd, ha := newSessionRecorder(), newSessionRecorder()
	d, a := sessionLinkPair(t, NewLoopback(), hd, ha)
	defer closeBoth(d, a)
	if err := d.SendSessionData(1, 99, []byte{99, 0, 1}); err == nil {
		t.Fatal("SendSessionData accepted an undeclared edge")
	}
	if err := d.SendSessionAck(1, 7, 1); err == nil {
		t.Fatal("SendSessionAck accepted an outbound edge")
	}
}

// nullSessionHandler absorbs all traffic without allocating, so
// allocation measurements see only the send/receive paths themselves.
type nullSessionHandler struct{}

func (nullSessionHandler) HandleData(edge uint16, msg []byte)                     {}
func (nullSessionHandler) HandleAck(edge uint16, count uint32)                    {}
func (nullSessionHandler) HandleFin(edge uint16)                                  {}
func (nullSessionHandler) HandleLinkClose(err error)                              {}
func (nullSessionHandler) HandleSessionOpen(sid uint32, tenant string)            {}
func (nullSessionHandler) HandleSessionOpenOK(sid uint32, status byte)            {}
func (nullSessionHandler) HandleSessionClose(sid uint32, status byte)             {}
func (nullSessionHandler) HandleSessionData(sid uint32, edge uint16, msg []byte)  {}
func (nullSessionHandler) HandleSessionAck(sid uint32, edge uint16, count uint32) {}
func (nullSessionHandler) HandleSessionFin(sid uint32, edge uint16)               {}

// TestSendZeroAlloc: the send path must not allocate per frame, whichever
// way the frame leaves — staged for the writer (the session tag rides a
// stack-array head copied into the pooled wire buffer, an ack is a map entry
// the writer turns into a frame) or written inline by its sender. Measured
// over real TCP so the whole hot path (encode, CRC, stage, write) is in
// scope; the warmup fills the resend window and buffer pools so steady state
// is what's measured.
func TestSendZeroAlloc(t *testing.T) {
	d, a := sessionLinkPair(t, &TCP{}, nullSessionHandler{}, nullSessionHandler{})
	defer closeBoth(d, a)
	small := []byte{7, 0, 1, 2}
	large := make([]byte, 2*inlineWriteBytes)
	large[0] = 7
	for name, send := range map[string]func() error{
		"staged session DATA": func() error { return d.SendSessionData(1, 7, small) },
		"staged DATA":         func() error { return d.SendData(7, small) },
		"queued ACK":          func() error { return d.SendAck(9, 1) },
		"inline DATA":         func() error { return d.SendData(7, large) },
	} {
		for i := 0; i < 600; i++ {
			if err := send(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(2000, func() {
			if err := send(); err != nil {
				t.Fatal(err)
			}
		})
		// Background goroutines (reader, writer) can contribute a stray
		// allocation while the measurement runs; amortized-zero is the
		// contract.
		if allocs > 0.5 {
			t.Errorf("%s: send path allocates %.2f allocs/op, want 0", name, allocs)
		}
	}
}

// BenchmarkSessionSendData reports the tagged send path's cost next to
// the untagged one.
func BenchmarkSessionSendData(b *testing.B) {
	for _, tagged := range []bool{false, true} {
		name := "untagged"
		if tagged {
			name = "tagged"
		}
		b.Run(name, func(b *testing.B) {
			hd, ha := nullSessionHandler{}, nullSessionHandler{}
			ln, err := (&TCP{}).Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			type res struct {
				l   *Link
				err error
			}
			acceptCh := make(chan res, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					acceptCh <- res{nil, err}
					return
				}
				l, err := AcceptLink(c, LinkConfig{Node: 1, Sessions: true}, func(peer int) ([]EdgeDecl, Handler, error) {
					return testManifest(false), ha, nil
				})
				acceptCh <- res{l, err}
			}()
			c, err := (&TCP{}).Dial(ln.Addr())
			if err != nil {
				b.Fatal(err)
			}
			d, err := NewLink(c, LinkConfig{Node: 0, Edges: testManifest(true), Sessions: true}, hd)
			if err != nil {
				b.Fatal(err)
			}
			r := <-acceptCh
			if r.err != nil {
				b.Fatal(r.err)
			}
			defer closeBoth(d, r.l)
			msg := []byte{7, 0, 1, 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if tagged {
					err = d.SendSessionData(1, 7, msg)
				} else {
					err = d.SendData(7, msg)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzDecodeSessionFrame fuzzes every session-frame body decoder:
// arbitrary bodies must never panic, and a well-formed OPEN built from
// the fuzz input must round-trip through the frame encoder and reader.
func FuzzDecodeSessionFrame(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 5, 0, 'a', 'l', 'i', 'c', 'e'}, "tenant")
	f.Add([]byte{}, "")
	f.Add([]byte{1, 0, 0, 0, 255, 255}, "x")
	f.Add([]byte{9, 0, 0, 0, 7, 0, 3, 0, 0, 0}, "spiload-0")
	f.Fuzz(func(t *testing.T, body []byte, tenant string) {
		decodeSessionOpen(body)
		decodeSessionStatus(body)
		decodeSessionAck(body)
		decodeSessionFin(body)
		if sid, msg, err := splitSessionData(body); err == nil {
			if len(msg) < 2 {
				t.Fatalf("splitSessionData returned %d-byte message for sid %d", len(msg), sid)
			}
		}
		if len(tenant) > maxTenantBytes {
			tenant = tenant[:maxTenantBytes]
		}
		enc := encodeSessionOpen(0xfeedbeef, tenant)
		fr := buildFrame(frameSOpen, 7, nil, enc)
		defer putWire(fr.buf)
		var reader frameReader
		typ, seq, got, err := reader.read(bytes.NewReader(fr.wire), DefaultMaxFrame)
		if err != nil {
			t.Fatalf("reading back a built frame: %v", err)
		}
		if typ != frameSOpen || seq != 7 {
			t.Fatalf("frame read back as type %d seq %d", typ, seq)
		}
		sid, ten, err := decodeSessionOpen(got)
		if err != nil {
			t.Fatalf("decoding a well-formed open: %v", err)
		}
		if sid != 0xfeedbeef || ten != tenant {
			t.Fatalf("open round-tripped as sid %#x tenant %q", sid, ten)
		}
	})
}
