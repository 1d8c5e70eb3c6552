package transport

import (
	"encoding/binary"
	"sync"
	"time"
)

// BatchConfig parameterizes the per-link write coalescer. The zero value
// disables batching entirely: every frame is written to the connection the
// moment it is encoded, exactly as links behaved before coalescing
// existed, so resumption, resend-buffer, and chaos semantics are
// unchanged unless a caller opts in.
//
// With batching enabled, session frames accumulate in a per-link buffer
// and flush as one Write when the frame-count or byte threshold is
// reached, when the microsecond deadline expires, or when a sender is
// about to stall (down link or full resend buffer) — a stalled sender
// must not sit on frames the peer needs to see before it can ack.
type BatchConfig struct {
	// MaxFrames flushes the batch once it holds this many frames
	// (default 32 when batching is enabled).
	MaxFrames int
	// MaxBytes flushes the batch once it holds this many wire bytes
	// (default 64 KiB when batching is enabled).
	MaxBytes int
	// MaxDelay bounds how long a buffered frame may wait for company
	// before a timer flushes it (default 100µs when batching is
	// enabled). This is the latency bound that keeps BBS credit loops
	// and UBS ack loops live when traffic is sparse.
	MaxDelay time.Duration
}

// Enabled reports whether any batching is configured. MaxFrames == 1 is
// explicitly "no batching" even when other fields are set.
func (b BatchConfig) Enabled() bool {
	if b.MaxFrames == 1 {
		return false
	}
	return b.MaxFrames > 1 || b.MaxBytes > 0 || b.MaxDelay > 0
}

func (b BatchConfig) withDefaults() BatchConfig {
	if !b.Enabled() {
		return b
	}
	if b.MaxFrames <= 0 {
		b.MaxFrames = 32
	}
	if b.MaxBytes <= 0 {
		b.MaxBytes = 64 << 10
	}
	if b.MaxDelay <= 0 {
		b.MaxDelay = 100 * time.Microsecond
	}
	return b
}

// wirePool recycles encoded frame buffers. Boxing through *[]byte keeps
// Put/Get allocation-free; buffers grow to the largest frame a link
// carries and are then reused at that size, so the steady-state send
// path performs zero allocations.
var wirePool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func getWire(n int) *[]byte {
	p := wirePool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putWire(p *[]byte) {
	if p == nil {
		return
	}
	wirePool.Put(p)
}

// coalescer is one link's write batch. All fields are guarded by the
// link's writer mutex (wmu): every producer of wire bytes already holds
// it, so batching adds no new locks to the hot path.
type coalescer struct {
	buf    []byte
	frames int
	gen    int // connection generation the buffered bytes target
	timer  *time.Timer
	armed  bool
}

func (b *coalescer) drop() {
	b.buf = b.buf[:0]
	b.frames = 0
}

// armFlushLocked schedules the deadline flush if buffered frames or
// pending acks are waiting and no timer is already pending. Caller holds
// wmu.
func (l *Link) armFlushLocked() {
	if l.batch.armed || (l.batch.frames == 0 && len(l.pendingOrder) == 0) {
		return
	}
	d := l.cfg.Batch.MaxDelay
	if d <= 0 {
		// Piggybacking without batching still needs the deadline so a
		// queued ack never waits indefinitely for a DATA frame to ride.
		d = 100 * time.Microsecond
	}
	if l.batch.timer == nil {
		l.batch.timer = time.AfterFunc(d, l.flushDeadline)
	} else {
		l.batch.timer.Reset(d)
	}
	l.batch.armed = true
}

// writeWire hands one encoded frame to the connection: appended to the
// batch when coalescing is on and under way, written directly otherwise. Caller holds
// wmu; wire must remain valid only for the duration of the call (batched
// bytes are copied). gen identifies the connection the frame targets —
// stale batched bytes from a previous generation are dropped, because
// every session frame also lives in the resend buffer and the RESUME
// replay is the authoritative delivery path after a reconnect.
func (l *Link) writeWire(conn Conn, gen int, wire []byte) error {
	// Coalescing starts once the link has carried MaxFrames frames: a short
	// exchange would only wait out the deadline, which an otherwise idle Go
	// runtime stretches from MaxDelay to a millisecond.
	if !l.batchOn || l.obs.framesSent.Value() < int64(l.cfg.Batch.MaxFrames) {
		if l.cfg.SendTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(l.cfg.SendTimeout))
		}
		if _, err := conn.Write(wire); err != nil {
			return err
		}
		l.obs.framesSent.Inc()
		l.obs.bytesSent.Add(int64(len(wire)))
		return nil
	}
	if l.batch.frames > 0 && l.batch.gen != gen {
		l.batch.drop()
	}
	l.batch.buf = append(l.batch.buf, wire...)
	l.batch.frames++
	l.batch.gen = gen
	if l.batch.frames >= l.cfg.Batch.MaxFrames || len(l.batch.buf) >= l.cfg.Batch.MaxBytes {
		return l.flushBatchLocked(conn, gen)
	}
	l.armFlushLocked()
	return nil
}

// flushBatchLocked writes the accumulated batch as a single Write.
// Caller holds wmu.
func (l *Link) flushBatchLocked(conn Conn, gen int) error {
	if l.batch.frames == 0 {
		return nil
	}
	if l.batch.gen != gen {
		l.batch.drop()
		return nil
	}
	buf, frames := l.batch.buf, l.batch.frames
	l.batch.drop()
	if l.cfg.SendTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(l.cfg.SendTimeout))
	}
	if _, err := conn.Write(buf); err != nil {
		return err
	}
	l.obs.framesSent.Add(int64(frames))
	l.obs.bytesSent.Add(int64(len(buf)))
	l.obs.batchFlushes.Inc()
	return nil
}

// flushDeadline is the coalescer's timer callback: materialize any acks
// still waiting for a DATA frame to ride, then flush the batch. On a
// down link the batched bytes are dropped — the resend buffer holds the
// frames and the RESUME replay delivers them — while pending acks stay
// queued for install() to flush after the replay; they are not yet
// session frames, so nothing else would deliver them. On a closed or
// failed link everything is dropped and the timer goes quiet.
func (l *Link) flushDeadline() {
	l.wmu.Lock()
	l.batch.armed = false
	l.mu.Lock()
	conn, gen, state, closing := l.conn, l.gen, l.state, l.closing
	l.mu.Unlock()
	if closing || state != stateUp {
		if state != stateDown || (l.batch.frames > 0 && l.batch.gen != gen) {
			l.batch.drop()
		}
		l.wmu.Unlock()
		return
	}
	err := l.flushPendingAcksLocked(conn, gen)
	if err == nil {
		err = l.flushBatchLocked(conn, gen)
	}
	l.armFlushLocked()
	l.wmu.Unlock()
	if err != nil {
		werr := &Error{Op: "send", Addr: l.raddr, Transient: isTimeout(err), Err: err}
		if l.cfg.Reconnect.Enabled() {
			l.connError(gen, werr)
		} else {
			l.poisonSend(gen)
		}
	}
	l.recheckCumAck()
}

// queueAck records an ack to be piggybacked on the next outbound DATA
// frame (or flushed standalone by the deadline timer). Caller holds wmu.
func (l *Link) queueAckLocked(edge uint16, count uint32) {
	if l.pendingAcks == nil {
		l.pendingAcks = make(map[uint16]uint32)
	}
	if _, ok := l.pendingAcks[edge]; !ok {
		l.pendingOrder = append(l.pendingOrder, edge)
	}
	l.pendingAcks[edge] += count
	l.armFlushLocked()
}

// takePendingAcksLocked drains up to 255 queued ack entries into the
// piggyback prefix (u8 n | n * (u16 edge | u32 count)) reusing the
// link's prefix buffer, and credits the per-edge piggyback counters.
// Caller holds wmu and must consume the returned slice before releasing
// it (buildFrame copies it into the frame).
func (l *Link) takePendingAcksLocked() []byte {
	n := len(l.pendingOrder)
	if n == 0 {
		return nil
	}
	if n > 255 {
		n = 255
	}
	l.piggyBuf = append(l.piggyBuf[:0], byte(n))
	for _, e := range l.pendingOrder[:n] {
		c := l.pendingAcks[e]
		l.piggyBuf = append(l.piggyBuf,
			byte(e), byte(e>>8),
			byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		delete(l.pendingAcks, e)
		if l.piggySent == nil {
			l.piggySent = make(map[uint16]int64)
		}
		l.piggySent[e] += int64(c)
	}
	copy(l.pendingOrder, l.pendingOrder[n:])
	l.pendingOrder = l.pendingOrder[:len(l.pendingOrder)-n]
	l.obs.acksPiggy.Add(int64(n))
	return l.piggyBuf
}

// flushPendingAcksLocked materializes queued acks as standalone session
// ACK frames — the deadline path when no DATA frame came along to carry
// them. Each needs resend-buffer room; acks that do not fit stay queued
// and the re-armed timer retries after the peer's cumulative ack frees
// slots, so ack delivery remains live without ever overrunning the
// resend budget. Caller holds wmu.
func (l *Link) flushPendingAcksLocked(conn Conn, gen int) error {
	for len(l.pendingOrder) > 0 {
		edge := l.pendingOrder[0]
		count := l.pendingAcks[edge]
		l.mu.Lock()
		if l.closing || l.state != stateUp || l.gen != gen || len(l.unacked) >= l.cfg.resendLimit() {
			l.mu.Unlock()
			return nil
		}
		l.sendSeq++
		seq := l.sendSeq
		var body [ackBodyBytes]byte
		body[0], body[1] = byte(edge), byte(edge>>8)
		body[2], body[3], body[4], body[5] = byte(count), byte(count>>8), byte(count>>16), byte(count>>24)
		f := buildFrame(frameAck, seq, nil, body[:])
		l.unacked = append(l.unacked, f)
		l.obs.resendDepth.Set(int64(len(l.unacked)))
		l.mu.Unlock()
		delete(l.pendingAcks, edge)
		copy(l.pendingOrder, l.pendingOrder[1:])
		l.pendingOrder = l.pendingOrder[:len(l.pendingOrder)-1]
		if err := l.writeWire(conn, gen, f.wire); err != nil {
			return err
		}
		l.obs.acksSent.Inc()
	}
	return nil
}

// buildFrame encodes one frame into a pooled buffer. The body is the
// concatenation head|tail (head may be nil); splitting it lets the
// DATAACK path prepend the piggyback prefix to an SPI message without
// first joining them in a scratch buffer. The returned frame owns its
// pooled buffer; trimUnacked recycles it once the peer's cumulative ack
// covers the sequence number.
func buildFrame(typ byte, seq uint64, head, tail []byte) savedFrame {
	n := frameHeaderBytes + len(head) + len(tail)
	buf := getWire(n)
	wire := *buf
	binary.LittleEndian.PutUint32(wire, uint32(13+len(head)+len(tail)))
	wire[4] = typ
	binary.LittleEndian.PutUint64(wire[5:], seq)
	binary.LittleEndian.PutUint32(wire[13:], frameCRC(typ, seq, head, tail))
	copy(wire[frameHeaderBytes:], head)
	copy(wire[frameHeaderBytes+len(head):], tail)
	return savedFrame{seq: seq, wire: wire, buf: buf}
}

// PiggybackedAcks reports, per inbound edge, how many acknowledgements
// this link has piggybacked on outbound DATA frames instead of sending
// as standalone ACK frames. The spinode stats table surfaces these next
// to the edge's standalone ack count.
func (l *Link) PiggybackedAcks() map[uint16]int64 {
	l.wmu.Lock()
	out := make(map[uint16]int64, len(l.piggySent))
	for e, n := range l.piggySent {
		out[e] = n
	}
	l.wmu.Unlock()
	l.recheckCumAck()
	return out
}

// SuppressedAcks reports, per inbound edge, how many acknowledgements
// this link swallowed on the ack-suppressed edges of its manifest. The
// SPI layer folds these out of its per-edge ack counters after a run,
// and the spinode stats table surfaces them next to the acks that did
// reach the wire.
func (l *Link) SuppressedAcks() map[uint16]int64 {
	l.wmu.Lock()
	out := make(map[uint16]int64, len(l.suppressedSent))
	for e, n := range l.suppressedSent {
		out[e] = n
	}
	l.wmu.Unlock()
	l.recheckCumAck()
	return out
}
