package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// readLoop dispatches inbound frames for one connection generation. It
// exits on the first read error (stale generations just die quietly; the
// live one reports through connError) or when the link is torn down. The
// peer's GOODBYE does not stop it: the connection stays readable so the
// final ack exchange of a graceful close can complete in both directions.
func (l *Link) readLoop(conn Conn, gen int, done chan struct{}) {
	defer close(done)
	interval := uint64(l.ackInterval())
	// One reusable frame buffer per connection generation: the body
	// handed to each case aliases it and is consumed (or copied by the
	// handler) before the next read, so the steady-state receive path
	// allocates nothing.
	var fr frameReader
	defer fr.release()
	for {
		if l.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(l.cfg.IdleTimeout))
		}
		typ, seq, body, err := fr.read(conn, l.cfg.maxFrame())
		if err != nil {
			l.connError(gen, &Error{Op: "recv", Addr: l.raddr, Transient: isTimeout(err), Err: err})
			return
		}
		// Any frame is proof of life: the pinger watches this counter and
		// refreshes the liveness mark when it moves, so the hot path pays
		// nothing extra for heartbeat tracking.
		l.obs.framesRecv.Inc()
		l.obs.bytesRecv.Add(int64(frameHeaderBytes + len(body)))
		ackOwed := false
		if numberedFrame(typ) {
			l.mu.Lock()
			if seq <= l.recvSeq {
				// Replay overlap or a duplicated frame: already delivered.
				l.mu.Unlock()
				l.obs.dups.Inc()
				continue
			}
			if seq != l.recvSeq+1 {
				want := l.recvSeq + 1
				l.mu.Unlock()
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr,
					Err: fmt.Errorf("sequence gap: got frame %d, want %d (frames lost)", seq, want)})
				return
			}
			l.recvSeq = seq
			ackOwed = seq-l.cumAcked >= interval
			l.mu.Unlock()
		}
		switch typ {
		case frameData:
			if len(body) < 2 {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr,
					Err: fmt.Errorf("data frame of %d bytes shorter than an SPI header", len(body))})
				return
			}
			id := binary.LittleEndian.Uint16(body)
			if _, ok := l.in[id]; !ok {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr,
					Err: fmt.Errorf("data frame for undeclared inbound edge %d", id)})
				return
			}
			l.obs.dataRecv.Inc()
			l.h.HandleData(id, body)
		case frameDataAck:
			acksRaw, msg, derr := splitDataAck(body)
			if derr != nil {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr, Err: derr})
				return
			}
			id := binary.LittleEndian.Uint16(msg)
			if _, ok := l.in[id]; !ok {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr,
					Err: fmt.Errorf("data frame for undeclared inbound edge %d", id)})
				return
			}
			bad := uint16(0)
			okAcks := true
			for off := 0; off < len(acksRaw); off += piggyEntryBytes {
				e := binary.LittleEndian.Uint16(acksRaw[off:])
				if _, ok := l.out[e]; !ok {
					bad, okAcks = e, false
					break
				}
			}
			if !okAcks {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr,
					Err: fmt.Errorf("piggybacked ack for undeclared outbound edge %d", bad)})
				return
			}
			l.obs.dataRecv.Inc()
			l.obs.acksPiggyRecv.Add(int64(len(acksRaw) / piggyEntryBytes))
			// Acks first: they free the peer-facing credit/ack state the
			// data's consumer may immediately depend on.
			for off := 0; off < len(acksRaw); off += piggyEntryBytes {
				l.h.HandleAck(binary.LittleEndian.Uint16(acksRaw[off:]),
					binary.LittleEndian.Uint32(acksRaw[off+2:]))
			}
			l.h.HandleData(id, msg)
		case frameAck:
			id, n, derr := decodeAck(body)
			if derr != nil {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr, Err: derr})
				return
			}
			if _, ok := l.out[id]; !ok {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr,
					Err: fmt.Errorf("ack frame for undeclared outbound edge %d", id)})
				return
			}
			l.obs.acksRecv.Inc()
			l.h.HandleAck(id, n)
		case frameFin:
			id, derr := decodeFin(body)
			if derr != nil {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr, Err: derr})
				return
			}
			_, inOK := l.in[id]
			_, outOK := l.out[id]
			if !inOK && !outOK {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr,
					Err: fmt.Errorf("fin frame for undeclared edge %d", id)})
				return
			}
			l.obs.finsRecv.Inc()
			l.obs.tr.Instant("link", "fin:recv", l.obs.pid, int(id))
			l.h.HandleFin(id)
		case frameCumAck:
			n, derr := decodeCumAck(body)
			if derr != nil {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr, Err: derr})
				return
			}
			l.trimUnacked(n)
		case frameSOpen, frameSOpenOK, frameSClose, frameSData, frameSAck, frameSFin:
			if derr := l.dispatchSession(typ, body); derr != nil {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr, Err: derr})
				return
			}
		case frameCtrl:
			if derr := l.dispatchCtrl(body); derr != nil {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr, Err: derr})
				return
			}
		case framePing:
			ts, derr := decodePing(body)
			if derr != nil {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr, Err: derr})
				return
			}
			l.stageProbe(gen, framePong, ts)
		case framePong:
			ts, derr := decodePing(body)
			if derr != nil {
				l.connError(gen, &Error{Op: "recv", Addr: l.raddr, Err: derr})
				return
			}
			if rtt := time.Now().UnixNano() - int64(ts); rtt >= 0 {
				us := rtt / int64(time.Microsecond)
				l.lastRTT.Store(us)
				l.obs.rtt.Observe(float64(us))
			}
			l.obs.pongsRecv.Inc()
		case frameGoodbye:
			// Keep reading: the final CUMACK for our own GOODBYE may still
			// be inbound. The reader exits when the peer, done draining,
			// closes the connection.
			l.peerGoodbye()
			continue
		default:
			l.connError(gen, &Error{Op: "recv", Addr: l.raddr,
				Err: fmt.Errorf("unexpected frame type %d", typ)})
			return
		}
		if ackOwed {
			// The writer's next pass carries the owed ack: the reader itself
			// must never write. On an unbuffered carrier (net.Pipe loopback)
			// DATA one way and numbered ACKs the other make both readers owe
			// a cumulative ack at once, and two readers parked in Write each
			// wait for the other to read.
			l.wakeWriter()
		}
	}
}

// trimUnacked drops resend-buffer frames covered by the peer's cumulative
// ack n and wakes senders blocked on buffer room.
func (l *Link) trimUnacked(n uint64) {
	l.mu.Lock()
	acksWaiting := l.trimLocked(n) && len(l.pendingOrder) > 0
	l.mu.Unlock()
	if acksWaiting {
		l.wakeWriter() // queued acks may have been waiting for this room
	}
}

// trimLocked is trimUnacked for a caller holding mu; it reports whether n
// advanced the peer's acknowledged mark. Trimmed frames return their wire
// buffers to the pool — except one its sender is still writing inline (the
// peer can read and acknowledge a frame before the sender is back from
// Write), which that sender recycles when it is done. Acks past our own
// sendSeq would let a protocol-violating peer recycle frames still being
// appended, so they are capped.
func (l *Link) trimLocked(n uint64) bool {
	if n > l.sendSeq {
		n = l.sendSeq
	}
	if n <= l.peerAcked {
		return false
	}
	l.peerAcked = n
	i := 0
	for i < len(l.unacked) && l.unacked[i].seq <= n {
		if l.unacked[i].seq == l.inlineSeq {
			l.inlineSeq = 0
		} else {
			putWire(l.unacked[i].buf)
		}
		i++
	}
	rest := copy(l.unacked, l.unacked[i:])
	for j := rest; j < len(l.unacked); j++ {
		l.unacked[j] = savedFrame{}
	}
	l.unacked = l.unacked[:rest]
	l.obs.resendDepth.Set(int64(len(l.unacked)))
	l.broadcastLocked()
	return true
}

// peerGoodbye records the peer's graceful shutdown: the handler sees a nil
// close now, and once our own GOODBYE is acknowledged the conversation is
// over (overLocked). The writer's next pass sends the cumulative ack telling
// the peer its
// GOODBYE (and, by the sequence filter, everything before it) arrived, so
// the peer's Close can stop draining; if that write is lost, the RESUME
// handshake carries the same high-water mark.
func (l *Link) peerGoodbye() {
	l.mu.Lock()
	l.peerClosed = true
	l.ackNow = true
	l.broadcastLocked()
	l.mu.Unlock()
	l.wakeWriter()
	l.notifyClose(nil)
}

// recover owns one outage for generation gen: wait for the previous reader
// to drain, then re-dial with RESUME (dialer side) or wait for the peer's
// re-dialed connection (accepting side), bounded by the reconnect policy.
func (l *Link) recover(gen int, prevDone chan struct{}, cause error) {
	<-prevDone
	rc := l.cfg.Reconnect
	deadline := time.Now().Add(rc.Deadline)
	lastErr := cause
	if l.dialer {
		rng := jitterRNG(rc.Jitter, rc.JitterSeed)
		delay := rc.BaseDelay
		for attempt := 0; attempt < rc.Attempts; attempt++ {
			if attempt > 0 {
				if !l.sleepUntil(jitterDelay(delay, rc.Jitter, rng), deadline) {
					break
				}
				delay = time.Duration(float64(delay) * rc.Multiplier)
				if delay > rc.MaxDelay {
					delay = rc.MaxDelay
				}
			}
			if !l.ownsOutage(gen) {
				return
			}
			l.obs.reconnects.Inc()
			l.obs.tr.Instant("session", "reconnect", l.obs.pid, l.obs.sessTid, obs.A("attempt", int64(attempt+1)))
			conn, peerRecv, err := l.dialResume(deadline)
			if err != nil {
				lastErr = err
				if !IsTransient(err) {
					break
				}
				continue
			}
			l.install(conn, peerRecv, gen)
			return
		}
		l.giveUp(gen, lastErr)
		return
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		select {
		case off := <-l.resumeCh:
			done, err := l.acceptOffer(off, gen, deadline)
			if done {
				return
			}
			lastErr = err
		case <-timer.C:
			l.giveUp(gen, lastErr)
			return
		case <-l.closedCh:
			return
		}
	}
}

func (l *Link) sleepUntil(d time.Duration, deadline time.Time) bool {
	if rem := time.Until(deadline); rem < d {
		d = rem
	}
	if d <= 0 {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-l.closedCh:
		return false
	}
}

// dialResume re-dials the peer and runs the RESUME handshake: send our
// receive high-water mark, read the peer's. Handshake failures are
// transient — the peer may still be noticing the outage.
func (l *Link) dialResume(deadline time.Time) (Conn, uint64, error) {
	if l.cfg.Redial == nil {
		return nil, 0, &Error{Op: "resume", Addr: l.raddr,
			Err: fmt.Errorf("reconnect enabled but no redial function configured")}
	}
	conn, err := l.cfg.Redial()
	if err != nil {
		return nil, 0, err
	}
	conn.SetWriteDeadline(deadline)
	conn.SetReadDeadline(deadline)
	l.mu.Lock()
	recv := l.recvSeq
	l.mu.Unlock()
	if err := writeFrame(conn, frameResume, 0, encodeResume(uint16(l.cfg.Node), l.token, recv)); err != nil {
		conn.Close()
		return nil, 0, &Error{Op: "resume", Addr: l.raddr, Transient: true, Err: err}
	}
	typ, _, body, err := readFrame(conn, l.cfg.maxFrame())
	if err != nil {
		conn.Close()
		return nil, 0, &Error{Op: "resume", Addr: l.raddr, Transient: true, Err: err}
	}
	if typ != frameResumeOK {
		conn.Close()
		return nil, 0, &Error{Op: "resume", Addr: l.raddr, Transient: true,
			Err: fmt.Errorf("resume answered with frame type %d, want resume-ok", typ)}
	}
	peerRecv, err := decodeResumeOK(body)
	if err != nil {
		conn.Close()
		return nil, 0, &Error{Op: "resume", Addr: l.raddr, Transient: true, Err: err}
	}
	return conn, peerRecv, nil
}

// acceptOffer answers a peer-initiated RESUME on the accepting side:
// reply with our receive high-water mark, then install the connection.
// done=false means this offer failed but recovery should keep waiting.
func (l *Link) acceptOffer(off resumeOffer, gen int, deadline time.Time) (done bool, err error) {
	off.conn.SetWriteDeadline(deadline)
	l.mu.Lock()
	recv := l.recvSeq
	l.mu.Unlock()
	var body [cumAckBodyBytes]byte
	binary.LittleEndian.PutUint64(body[:], recv)
	if werr := writeFrame(off.conn, frameResumeOK, 0, body[:]); werr != nil {
		off.conn.Close()
		return false, &Error{Op: "resume", Addr: l.raddr, Transient: true, Err: werr}
	}
	l.install(off.conn, off.recvSeq, gen)
	return true, nil
}

// install brings a resumed connection up: trim the resend buffer to the
// peer's high-water mark and restage what is left, so the writer starts
// again from the first frame the peer has not seen; sends that arrive from
// now on stage behind the replay, which preserves frame order. The new
// reader is running before the writer's first write — on loopback both
// sides replay into unbuffered pipes, so each side must be draining inbound
// frames while its own replay blocks.
func (l *Link) install(conn Conn, peerRecv uint64, gen int) {
	l.mu.Lock()
	if !l.ownsOutageLocked(gen) {
		l.mu.Unlock()
		conn.Close()
		return
	}
	l.trimLocked(peerRecv)
	for _, f := range l.unacked {
		l.stageLocked(f.wire)
	}
	replayed := int64(len(l.unacked))
	l.conn = conn
	l.state = stateUp
	// Acks queued during the outage have no session frame yet: they follow
	// the replay.
	l.materializeAcksLocked()
	// The RESUME handshake just heard from the peer; reset the liveness
	// mark so the fresh connection starts with a full timeout budget.
	l.lastHeard.Store(time.Now().UnixNano())
	// The RESUME/RESUME-OK exchange carried our recvSeq, so everything
	// received so far is already acknowledged to the peer.
	l.cumAcked = l.recvSeq
	done := make(chan struct{})
	l.readerDone = done
	l.obs.resumes.Inc()
	l.obs.retransmits.Add(replayed)
	l.obs.tr.Instant("session", "resume", l.obs.pid, l.obs.sessTid,
		obs.A("gen", int64(gen)), obs.A("replay", replayed))
	l.broadcastLocked()
	conn.SetReadDeadline(time.Time{})
	conn.SetWriteDeadline(time.Time{})
	go l.readLoop(conn, gen, done)
	l.mu.Unlock()
	l.wakeWriter()
}

// adoptConn routes a peer's re-dialed RESUME connection to this link's
// recovery. If the link still thinks its old connection is up (asymmetric
// failure — only the peer noticed), that connection is lost here first,
// exactly as if this side had seen it die: an outage, whose recovery picks
// the offer up, unless the conversation is over. A peer whose GOODBYE
// already arrived may still re-dial — until it has our ack of it, the
// conversation is not over.
func (l *Link) adoptConn(conn Conn, peerRecv uint64) error {
	l.mu.Lock()
	if l.state == stateUp && l.cfg.Reconnect.Enabled() {
		l.loseConnLocked(&Error{Op: "resume", Addr: l.raddr,
			Err: fmt.Errorf("peer re-dialed; abandoning current connection")})
	}
	down := l.state == stateDown
	l.mu.Unlock()
	if !down {
		conn.Close()
		return &Error{Op: "resume", Addr: conn.RemoteAddr(),
			Err: fmt.Errorf("link to node %d is not resumable", l.peer)}
	}
	select {
	case l.resumeCh <- resumeOffer{conn: conn, recvSeq: peerRecv}:
		return nil
	default:
		conn.Close()
		return &Error{Op: "resume", Addr: conn.RemoteAddr(), Err: errResumePending}
	}
}

// giveUp notifies the handler with the last cause after recovery is
// exhausted, then marks the link failed. In that order: the state change
// releases the senders parked in SendData, and whoever unwinds through them
// must find the failure already delivered — a degraded run whose processors
// all unwound first closed the link gracefully, which turned the pending
// notification into a nil and left its report naming no dead peer.
func (l *Link) giveUp(gen int, cause error) {
	if !l.ownsOutage(gen) {
		return
	}
	err := &Error{Op: "resume", Addr: l.raddr, Err: fmt.Errorf("reconnect exhausted: %w", cause)}
	l.notifyClose(err)
	l.mu.Lock()
	if !l.ownsOutageLocked(gen) {
		l.mu.Unlock()
		return
	}
	l.endLocked(stateFailed, err)
	l.obs.tr.Instant("session", "link-failed", l.obs.pid, l.obs.sessTid, obs.A("gen", int64(gen)))
	l.mu.Unlock()
	l.drainOffers()
}

func (l *Link) drainOffers() {
	for {
		select {
		case off := <-l.resumeCh:
			off.conn.Close()
		default:
			return
		}
	}
}

// Close shuts the link down gracefully, as a sequence of bounded waits on
// the link's state: wait out a pending reconnection so unacknowledged
// frames are replayed, send a sequence-numbered GOODBYE, drain until the
// peer's cumulative ack covers it (cycling the connection once if the
// session tail was silently lost), wait for the peer's own GOODBYE so
// inbound frames drain too — an outage meanwhile is waited out, not taken
// for the end, since the peer may still be producing — acknowledge it,
// then tear the connection down and reap the reader and the writer. Every
// wait is bounded by CloseTimeout. The error, also given to
// HandleLinkClose, says that frames sent before Close were never
// acknowledged: sends return once their frame is staged, so this is where a
// caller learns that its last ones were lost. Close is idempotent and safe
// to call from any goroutine.
func (l *Link) Close() error {
	l.closeOnce.Do(func() {
		deadline := time.Now().Add(l.cfg.closeTimeout())
		l.mu.Lock()
		l.graceful = true
		l.closeSeq = l.sendSeq
		l.mu.Unlock()
		l.await(deadline, func() bool { return l.state != stateDown })
		if l.sendGoodbye() {
			l.drainGoodbye(deadline)
		}
		l.await(deadline, func() bool { return l.peerClosed || l.state >= stateFailed })
		l.finalAck(deadline)
		l.mu.Lock()
		if lost := l.lostLocked(); lost > 0 {
			l.closeErr = &Error{Op: "close", Addr: l.raddr,
				Err: fmt.Errorf("the last %d frames sent to node %d were never acknowledged", lost, l.peer)}
		}
		l.mu.Unlock()
		l.shutdown()
	})
	return l.closeErr
}

// errClosedHere is why a link this side closed or aborted refuses sends.
var errClosedHere = errors.New("closed by this side")

// shutdown is the end of Close and all of Abort: mark the link closed, tear
// the connection down (which releases a reader or writer parked on it) and
// reap both goroutines.
func (l *Link) shutdown() {
	l.mu.Lock()
	l.graceful = true
	close(l.closedCh)
	l.endLocked(stateClosed, errClosedHere)
	conn := l.conn
	rd := l.readerDone
	l.mu.Unlock()
	conn.Close()
	<-rd
	<-l.writerDone
	l.drainOffers()
	l.notifyClose(l.closeErr)
}

// sendGoodbye assigns the GOODBYE the next session sequence number and
// buffers it like any session frame: passing the receiver's sequence
// filter proves every prior frame arrived, and a RESUME replays it if the
// connection dies first (while the link is down it is buffered only, and
// the pending recovery's replay delivers it). Queued acks are materialized
// ahead of it — the GOODBYE must be the last session frame the peer
// sequences. It reports whether the link had not ended, so the peer can
// still be expected to acknowledge the GOODBYE.
func (l *Link) sendGoodbye() bool {
	l.mu.Lock()
	if l.state >= stateFailed {
		l.mu.Unlock()
		return false
	}
	l.materializeAcksLocked()
	f := l.fileLocked(frameGoodbye, nil, nil)
	l.byeSeq = f.seq
	if l.state == stateUp {
		l.stageLocked(f.wire)
	}
	l.mu.Unlock()
	l.wakeWriter()
	return true
}

// drainGoodbye waits until the peer's cumulative ack covers the GOODBYE,
// or the link ends. No ack means the session tail — possibly the GOODBYE
// itself — was lost with no later frame to expose the gap, so with
// reconnection enabled the connection is cycled once: the RESUME handshake
// exchanges high-water marks and the replay delivers the missing suffix.
func (l *Link) drainGoodbye(deadline time.Time) {
	settled := func() bool { return l.peerAcked >= l.byeSeq || l.state >= stateFailed }
	if !l.cfg.Reconnect.Enabled() {
		l.await(deadline, settled)
		return
	}
	probe := time.Now().Add(l.cfg.closeTimeout() / 4)
	if probe.After(deadline) {
		probe = deadline
	}
	if l.await(probe, settled) {
		return
	}
	l.mu.Lock()
	if l.state == stateUp {
		l.loseConnLocked(&Error{Op: "close", Addr: l.raddr,
			Err: fmt.Errorf("final frames unacknowledged; cycling connection to replay")})
	}
	l.mu.Unlock()
	l.await(deadline, settled)
}

// finalAck makes sure the peer's GOODBYE got its closing CUMACK before we
// tear the connection down: the writer was woken to send one, but a fast
// Close could otherwise win that race and strand the peer's drain. Running
// the writer's pass here waits out the write in flight and sends whatever
// is still owed; the deadline bounds both.
func (l *Link) finalAck(deadline time.Time) {
	l.mu.Lock()
	if !l.peerClosed || l.state != stateUp {
		l.mu.Unlock()
		return
	}
	if l.cfg.SendTimeout <= 0 {
		l.conn.SetWriteDeadline(deadline)
	}
	l.mu.Unlock()
	l.wmu.Lock()
	l.mu.Lock()
	l.ackNow = true
	l.writePass(savedFrame{}) // an error here is the peer's to recover from: RESUME carries the same mark
	l.wmu.Unlock()
}

// Abort tears the link down immediately, without the GOODBYE exchange or
// any reconnection: the peer observes a connection error, distinguishing a
// failed node from one that completed and closed gracefully. The local
// handler's close callback reports nil (the shutdown was deliberate).
func (l *Link) Abort() {
	l.closeOnce.Do(l.shutdown)
}
