package transport

import (
	"encoding/binary"
)

// One writer per link. After the handshake (and each RESUME exchange)
// exactly one goroutine, writer, writes to a link's connection. A sender
// assigns its frame the next sequence number, files it in the resend
// buffer, appends its bytes to the stage and returns; the writer takes
// everything staged since its last write — plus the SPI acks still queued,
// plus the cumulative ack when one is owed — and hands it to the carrier in
// one Write. The link is therefore self-clocked: an idle one writes a lone
// frame at once, a busy one coalesces exactly the frames that arrived
// while the previous write was in flight. There is no deadline to wait
// out and nothing to tune.
//
// The one exception is a frame that amortizes its own syscall: copying a
// 64 KiB slab into the stage and handing it to a goroutine that must first
// win a processor from the compute-bound senders costs more than the write
// it saves. A frame of at least inlineWriteBytes is written by its sender,
// straight from its resend-buffer bytes, after whatever was staged before
// it. The rule keys on the frame's size and nothing else.
//
// wmu is held by whoever is writing to the carrier — the writer, or the
// sender of a large frame — and mu guards the stage along with the rest of
// the link's state. A sequence number is assigned and its frame placed in
// wire order (staged, or claimed for an inline write with wmu already
// held) inside one critical section of mu, so sequence order is wire
// order. Lock order: wmu before mu. The reader takes mu only: it never
// writes, it stages (a PONG) or wakes the writer (an owed cumulative ack).
const inlineWriteBytes = 4 << 10

// maxSpareBytes bounds the write buffer a link keeps between passes; a
// RESUME replay may stage the whole resend buffer at once, and that
// allocation should not outlive it.
const maxSpareBytes = 1 << 20

// wakeWriter tells the writer there is something to write. It never
// blocks: one pending token is enough, because a pass takes everything
// staged.
func (l *Link) wakeWriter() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// fileLocked assigns the next sequence number to one numbered frame and
// files it in the resend buffer, where it stays until the peer's cumulative
// ack covers it. Caller holds mu and places f.wire in wire order before
// releasing it.
func (l *Link) fileLocked(typ byte, head, body []byte) savedFrame {
	l.sendSeq++
	f := buildFrame(typ, l.sendSeq, head, body)
	l.unacked = append(l.unacked, f)
	l.obs.resendDepth.Set(int64(len(l.unacked)))
	return f
}

// stageLocked appends one encoded frame to what the writer's next pass
// sends. Caller holds mu and wakes the writer after releasing it.
func (l *Link) stageLocked(wire []byte) {
	l.stage = append(l.stage, wire...)
	l.staged++
}

// stageControlLocked stages one unnumbered frame with a small fixed body.
func (l *Link) stageControlLocked(typ byte, body []byte) {
	// body rides as the head: the small-CRC path keeps it on the stack.
	l.stage = appendFrame(l.stage, typ, 0, body, nil)
	l.staged++
}

// writer is the link's one writing goroutine, for the life of the link.
func (l *Link) writer() {
	defer close(l.writerDone)
	for {
		select {
		case <-l.wake:
		case <-l.closedCh:
			return
		}
		l.wmu.Lock()
		l.mu.Lock()
		l.materializeAcksLocked()
		gen, err := l.writePass(savedFrame{})
		l.wmu.Unlock()
		if err != nil {
			l.writeFailed(gen, err)
		}
	}
}

// writePass is the only code that writes to the carrier once the link is
// up: it sends what is staged, with the cumulative ack if one is owed, and
// then inline, the large frame its caller just filed (the zero savedFrame:
// none). The caller holds wmu and mu; writePass releases mu before it
// writes. The error, if any, is the caller's to report once it has released
// wmu.
func (l *Link) writePass(inline savedFrame) (gen int, err error) {
	gen = l.gen
	if l.state != stateUp {
		l.mu.Unlock()
		return gen, nil
	}
	if owed := l.recvSeq - l.cumAcked; owed > 0 && (l.ackNow || owed >= ackInterval) {
		var body [cumAckBodyBytes]byte
		binary.LittleEndian.PutUint64(body[:], l.recvSeq)
		l.stageControlLocked(frameCumAck, body[:])
		l.cumAcked = l.recvSeq
	}
	l.ackNow = false
	buf, frames := l.stage, l.staged
	l.stage, l.staged = l.spare[:0], 0
	conn := l.conn
	// The inline frame is written from its resend-buffer bytes outside mu;
	// should the peer's cumulative ack cover it before the write returns,
	// trimLocked leaves its buffer for this sender to recycle.
	l.inlineSeq = inline.seq
	l.mu.Unlock()

	writes := 0
	for _, p := range [2][]byte{buf, inline.wire} {
		if len(p) == 0 || err != nil {
			continue
		}
		_, err = conn.Write(p)
		writes++
	}
	if cap(buf) > maxSpareBytes {
		buf = nil
	}
	l.spare = buf[:0]
	if inline.buf != nil {
		l.mu.Lock()
		if l.inlineSeq != inline.seq {
			putWire(inline.buf) // trimmed while it was being written
		}
		l.inlineSeq = 0
		l.mu.Unlock()
	}
	if err != nil {
		return gen, err
	}
	if frames > 1 {
		l.obs.batchFlushes.Inc()
	}
	if inline.buf != nil {
		frames++
	}
	l.obs.writes.Add(int64(writes))
	l.obs.framesSent.Add(int64(frames))
	l.obs.bytesSent.Add(int64(len(buf) + len(inline.wire)))
	return gen, nil
}

// writeFailed reports a failed carrier write of generation gen: the link
// goes down (reconnection enabled — every numbered frame of the lost write
// is in the resend buffer, and the RESUME replay delivers it) or fails.
// Senders learn of a failure on their next send, the handler through
// HandleLinkClose.
func (l *Link) writeFailed(gen int, err error) *Error {
	werr := &Error{Op: "send", Addr: l.raddr, Transient: isTimeout(err), Err: err}
	l.connError(gen, werr)
	return werr
}

// stageProbe stages one PING (ts the current time) or the PONG echoing a
// peer's PING (ts its timestamp) on connection generation gen. The pinger
// sends PINGs; the reader answers with PONGs, which is staging, not
// writing, so it cannot park behind a peer that is not reading.
func (l *Link) stageProbe(gen int, typ byte, ts uint64) {
	var body [pingBodyBytes]byte
	encodePing(body[:], ts)
	l.mu.Lock()
	ok := l.gen == gen && l.state == stateUp
	if ok {
		l.stageControlLocked(typ, body[:])
	}
	l.mu.Unlock()
	if !ok {
		return
	}
	l.wakeWriter()
	if typ == framePing {
		l.obs.pingsSent.Inc()
	}
}

// ackKey names what one ACK frame acknowledges, an edge of one run: the
// run's tag above the edge ID, packed so the queue's map takes its fast
// integer-key path. Acks merge per key and never across tags, so each
// session's credits reach that session alone.
type ackKey uint64

func keyOf(tag uint32, edge uint16) ackKey { return ackKey(tag)<<16 | ackKey(edge) }

// queueAckLocked records an SPI ack for the writer's next pass to send.
// Acks for one key coalesce into one entry, so the queue is bounded by the
// inbound edges of the live runs and SendAck never blocks. Caller holds mu.
func (l *Link) queueAckLocked(k ackKey, count uint32) {
	if l.pendingAcks == nil {
		l.pendingAcks = make(map[ackKey]uint32)
	}
	if _, ok := l.pendingAcks[k]; !ok {
		l.pendingOrder = append(l.pendingOrder, k)
	}
	l.pendingAcks[k] += count
}

// materializeAcksLocked turns queued acks into staged, numbered ACK
// frames, one per key. Each needs resend-buffer room; acks that do not fit
// stay queued and trimLocked wakes the writer when the peer's cumulative
// ack frees slots, so ack delivery stays live without overrunning the
// resend budget. On a link that is not up they stay queued too (install
// materializes them behind the replay). Caller holds mu.
func (l *Link) materializeAcksLocked() {
	if l.state != stateUp {
		return
	}
	n := 0
	for _, k := range l.pendingOrder {
		if len(l.unacked) >= resendLimit {
			break
		}
		var body [ackBodyBytes]byte
		putAck(&body, uint32(k>>16), uint16(k), l.pendingAcks[k])
		delete(l.pendingAcks, k)
		l.stageLocked(l.fileLocked(frameAck, body[:], nil).wire)
		l.obs.acksSent.Inc()
		n++
	}
	l.pendingOrder = l.pendingOrder[:copy(l.pendingOrder, l.pendingOrder[n:])]
}

// SuppressedAcks reports, per inbound edge, how many acknowledgements
// this link swallowed on the ack-suppressed edges of its manifest. The
// SPI layer folds these out of its per-edge ack counters after a run,
// and the spinode stats table surfaces them next to the acks that did
// reach the wire.
func (l *Link) SuppressedAcks() map[uint16]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return copyCounts(l.suppressedSent)
}

func copyCounts(m map[uint16]int64) map[uint16]int64 {
	out := make(map[uint16]int64, len(m))
	for e, n := range m {
		out[e] = n
	}
	return out
}
