package transport

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/obs"
)

// streamHandler checks, as they arrive and without keeping them, that the
// messages on edge 7 are streamMsg(0, size), streamMsg(1, size), … in order.
type streamHandler struct {
	*recordingHandler
	size   int
	n, bad atomic.Int64
}

func newStreamHandler(size int) *streamHandler {
	return &streamHandler{recordingHandler: newRecordingHandler(), size: size}
}

// streamMsg is message i of a stream: edge 7's ID, then bytes that differ
// from one message to the next.
func streamMsg(i, size int) []byte {
	msg := make([]byte, size)
	binary.LittleEndian.PutUint16(msg, 7)
	for j := 2; j < size; j++ {
		msg[j] = byte(i + j)
	}
	return msg
}

func (h *streamHandler) HandleData(edge uint16, msg []byte) {
	i := int(h.n.Load())
	ok := edge == 7 && len(msg) == h.size && binary.LittleEndian.Uint16(msg) == 7
	for j := 2; ok && j < len(msg); j++ {
		ok = msg[j] == byte(i+j)
	}
	if !ok {
		h.bad.Add(1)
	}
	h.n.Add(1)
}

func (h *streamHandler) wait(t *testing.T, n int) {
	t.Helper()
	waitFor(t, "the stream's delivery", func() bool { return h.n.Load() >= int64(n) })
	if bad := h.bad.Load(); bad > 0 {
		t.Fatalf("%d of %d messages arrived altered or out of order", bad, h.n.Load())
	}
}

// resendHeld reports the resend buffer's byte count, failing the test
// unless it is the sum of the buffer's frame lengths and what the
// transport_link_resend_bytes gauge reads.
func (l *Link) resendHeld(t *testing.T, when string) int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	summed := 0
	for _, f := range l.unacked {
		summed += len(*f)
	}
	if gauged := l.obs.resendSize.Value(); l.unackedLen != summed || gauged != int64(summed) {
		t.Fatalf("%s: byte count %d, gauge %d, frames sum to %d", when, l.unackedLen, gauged, summed)
	}
	return summed
}

// slabFrame is the wire size of one 64 KiB message: header, tag, message.
const slabFrame = frameHeaderBytes + tagBytes + 64<<10

// TestWriterBoundsResendBytes streams 200 messages of 64 KiB, the size of
// a blocked LPC slab: 256 of them fit the frame budget, so before the byte
// budget a link held 64 (4 MiB) until the peer's next cumulative ack. The
// stream arrives byte-identical, the resend buffer never holds more than
// resendBytes and one frame, and the receiver acks by bytes: however late
// its writer runs, each ack covers at most what that bound lets the sender
// hold, so there are many more acks than the 3 the frame cadence sends.
// The Close after the stream returns at once: its waits end on broadcasts
// of the link's state, which a lost wake-up would turn into the 5 s bound.
func TestWriterBoundsResendBytes(t *testing.T) {
	const n, size = 200, 64 << 10
	trs := transports()
	for _, name := range []string{"loopback", "tcp"} {
		t.Run(name, func(t *testing.T) {
			tr := trs[name]
			h, o := newStreamHandler(size), obs.New()
			dialer, acceptor := batchLinkPair(t, tr, testAddr(name), func(c *LinkConfig) { c.Obs = o }, nil, newRecordingHandler(), h)
			peak := 0
			for i := 0; i < n; i++ {
				if err := dialer.SendData(7, streamMsg(i, size)); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				peak = max(peak, dialer.resendHeld(t, fmt.Sprintf("after send %d", i)))
			}
			if _, ok := o.Metrics.Get("transport_link_resend_bytes", obs.L("peer", "1")); !ok {
				t.Fatal("no transport_link_resend_bytes gauge exported for peer 1")
			}
			if peak > resendBytes+slabFrame {
				t.Fatalf("resend buffer held %d bytes, bound %d + one %d-byte frame", peak, resendBytes, slabFrame)
			}
			h.wait(t, n)
			waitFor(t, "the acks of all but the tail", func() bool { return dialer.resendHeld(t, "acked") < ackBytes })
			total := n * slabFrame
			acks := dialer.Stats().FramesReceived // the acceptor sends cumulative acks only
			t.Logf("peak %d bytes held; %d cumulative acks for %d bytes (one per %d bytes)", peak, acks, total, total/int(acks))
			if least := int64((total - ackBytes) / (resendBytes + slabFrame)); acks < least || acks <= n/ackInterval {
				t.Fatalf("%d cumulative acks for %d bytes in %d frames; the byte cadence sends at least %d", acks, total, n, least)
			}
			// The cadence owes an ack every ⌈ackBytes/slabFrame⌉ frames, and it
			// leaves on time: the reader yields to the writer it woke. Before
			// it did, the writer's pass ran late and a run sent 14–45 of 50.
			if owed := int64(n / ((ackBytes + slabFrame - 1) / slabFrame)); acks < owed*4/5 {
				t.Fatalf("%d cumulative acks where the cadence owes %d: the owed acks waited for the writer", acks, owed)
			}
			start := time.Now()
			closeBoth(dialer, acceptor)
			if took := time.Since(start); took > closeTimeout/2 {
				t.Fatalf("Close took %v after the stream, bound %v", took, closeTimeout)
			}
		})
	}
}

// TestWriterResumesWithBudgetFull severs the connection with the byte
// budget full. The acceptor's writer is held, so no cumulative ack reaches
// the dialer: its resend buffer fills with 15 slab frames (a 16th would pass
// resendBytes), and the chaos transport cuts the connection at the 15th. The
// RESUME replay delivers the stream bit-identically, and after install the
// byte count is again the sum of the frames the buffer kept.
func TestWriterResumesWithBudgetFull(t *testing.T) {
	const n, size, full = 64, 64 << 10, resendBytes / slabFrame
	if full != 15 {
		t.Fatalf("%d slab frames fill the budget; the sever point assumes 15", full)
	}
	ft := NewFaultTransport(NewLoopback(), FaultConfig{SeverAt: []int{full}, MaxFaults: 1}) // ordinal 0 is HELLO
	h := newStreamHandler(size)
	dialer, acceptor, stop := batchChaosPair(t, ft, func(*LinkConfig) {}, newRecordingHandler(), h)
	defer stop()
	acceptor.wmu.Lock()
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := dialer.SendData(7, streamMsg(i, size)); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	waitFor(t, "the resume", func() bool { return dialer.Stats().Resumes == 1 })
	if dialer.resendHeld(t, "after install") == 0 {
		t.Fatal("after install: nothing left to replay")
	}
	waitFor(t, "the budget to fill again", func() bool { return dialer.resendHeld(t, "refilling")+slabFrame > resendBytes })
	acceptor.wmu.Unlock()
	h.wait(t, n)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if st := ft.Stats(); st.Severs != 1 {
		t.Fatalf("%d severs, want 1", st.Severs)
	}
	dialer.resendHeld(t, "after the stream")
	closeBoth(dialer, acceptor)
}

// TestAllocsLinkStream: a warmed link streaming 8 KiB frames, whose
// receiver acks every 32 by bytes, allocates nothing per frame. Every
// cumulative ack trims the resend buffer and broadcasts the change, and a
// broadcast used to replace its channel whether or not anyone waited on it.
func TestAllocsLinkStream(t *testing.T) {
	const size, batch, batches = 8 << 10, 64, 8
	h := newStreamHandler(size)
	dialer, acceptor := linkPair(t, NewLoopback(), "node1", newRecordingHandler(), h)
	defer closeBoth(dialer, acceptor)
	var msgs [256][]byte // message i carries the bytes of every i + 256k
	for i := range msgs {
		msgs[i] = streamMsg(i, size)
	}
	n := 0
	stream := func() {
		for b := 0; b < batches; b++ {
			for i := 0; i < batch; i++ {
				if err := dialer.SendData(7, msgs[(n+i)%len(msgs)]); err != nil {
					t.Fatal(err)
				}
			}
			n += batch
			for h.n.Load() < int64(n) {
				runtime.Gosched()
			}
		}
	}
	got := alloctest.Min(5, stream)
	if h.bad.Load() > 0 {
		t.Fatal("messages arrived altered or out of order")
	}
	frames := float64(batch * batches)
	alloctest.AtMost(t, "streaming 8 KiB frames: per frame", alloctest.Allocs{N: got.N / frames, Bytes: got.Bytes / frames}, alloctest.Allocs{N: 1 / frames})
}
