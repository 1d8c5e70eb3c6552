package spi

import (
	"fmt"

	"repro/internal/transport"
)

// Remote edge binding: one half of a Runtime edge — its Sender or its
// Receiver — can be bound to a network link, turning the in-process
// shared-memory edge into one end of an interprocessor edge between OS
// processes. The Sender/Receiver API is unchanged: Send encodes the
// message with the same SPI_static / SPI_dynamic wire format and hands its
// buffer to the link; inbound messages and acknowledgements are injected by
// the transport layer through DeliverData / DeliverAck. Which consumed
// message sends an acknowledgement is the plan's decision alone (acks):
//
//   - BBS: nothing crosses back. The analysis bounds the buffer, so the
//     sender never waits; the receiver checks the bound, and a message that
//     arrives with Capacity messages queued fails the edge — a bug in the
//     bound or in the executor's self-timed order, never flow control.
//   - UBS: the sender never blocks; the receiver acks each consumed
//     message, keeping the sent/acked window for the buffer bookkeeping,
//     unless the §4 resynchronization verdict suppresses the edge.
//
// Any MessageLink implementation works; transport.Link satisfies the
// interface, and a session's stream (internal/session) tags what it sends
// with the session's ID.

// MessageLink is the subset of a transport link the runtime needs: framed
// delivery of SPI-encoded messages, acknowledgement counts, and per-edge
// FIN markers. All methods must be safe for concurrent use.
type MessageLink interface {
	// SendBuffer transmits one SPI-encoded message (header included), which
	// buf holds behind transport.Headroom bytes of room for the frame
	// header, and takes the buffer (see transport.Link.SendBuffer).
	SendBuffer(edge uint16, buf *[]byte) error
	// SendAck transmits a UBS acknowledgement count.
	SendAck(edge uint16, count uint32) error
	// SendFin tells the peer this side of one edge is permanently done —
	// no more data will be produced (out edges) and no more messages
	// consumed (in edges). Used by graceful degradation to starve exactly
	// the actors downstream of a failure while the rest of the graph
	// drains.
	SendFin(edge uint16) error
}

// BindRemoteSender routes the edge's Send side over link: payloads are
// encoded as usual but transmitted instead of queued locally, and the UBS
// window is maintained from acknowledgements delivered via DeliverAck.
// Bind before the first Send; each half binds at most once.
func (r *Runtime) BindRemoteSender(id EdgeID, link MessageLink) error {
	return r.bind(id, link, "sender", func(e *edge) *MessageLink { return &e.remoteTx })
}

// BindRemoteReceiver marks the edge's Receive side as fed by link:
// messages arrive via DeliverData, and on a UBS edge every consumed
// message sends an acknowledgement back through the link. Bind before the
// first Receive; each half binds at most once.
func (r *Runtime) BindRemoteReceiver(id EdgeID, link MessageLink) error {
	return r.bind(id, link, "receiver", func(e *edge) *MessageLink { return &e.remoteRx })
}

// bind sets the half of edge id that half points at, at most once.
func (r *Runtime) bind(id EdgeID, link MessageLink, name string, half func(*edge) *MessageLink) error {
	e := r.edge(id)
	if e == nil {
		return fmt.Errorf("spi: edge %d not initialized", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if *half(e) != nil {
		return fmt.Errorf("spi: edge %d %s already remote-bound", id, name)
	}
	*half(e) = link
	return nil
}

// DeliverData injects one wire message into the edge's receive queue —
// what a link's handler does without the runtime's lock. Unknown edges
// and messages arriving after close are dropped: both can only happen during
// shutdown races or against a misbehaving peer, and network input must never
// panic the runtime. A message that finds a BBS edge's Capacity slots full
// fails the edge instead of queueing: Receive returns the error.
func (r *Runtime) DeliverData(edge uint16, msg []byte) { r.edge(EdgeID(edge)).deliverData(msg) }

func (e *edge) deliverData(msg []byte) {
	if e == nil {
		return
	}
	// Copy into a buffer from the free list: the transport layer reuses its
	// read buffer, and the receiver recycles the copy after decoding, so the
	// steady-state delivery path allocates nothing.
	mb := transport.Buffer(len(msg))
	*mb = append(*mb, msg...)
	e.mu.Lock()
	if e.fault == nil && e.cfg.Protocol == BBS && e.qdepthLocked() >= e.cfg.Capacity {
		// The receiver is not waiting: Capacity messages are queued.
		e.fault = fmt.Errorf("spi: edge %s: a message arrived with all %d BBS slots full", e.displayName(), e.cfg.Capacity)
	}
	if e.closed || e.fault != nil {
		e.mu.Unlock()
		transport.Recycle(mb)
		return
	}
	if depth := e.pushLocked(mb); depth > e.stats.MaxQueued {
		e.stats.MaxQueued = depth
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// DeliverAck credits the edge's sender with count acknowledgements from
// the remote receiver, advancing the UBS sent/acked bookkeeping. Nothing
// waits on it.
func (r *Runtime) DeliverAck(edge uint16, count uint32) { r.edge(EdgeID(edge)).deliverAck(count) }

func (e *edge) deliverAck(count uint32) {
	if e != nil {
		e.ackedMsgs.Add(int64(count))
	}
}

// CloseEdge closes one edge: blocked senders return ErrClosed immediately,
// receivers drain the already-queued messages first. The transport layer
// calls it for every edge of a link that dies, so a lost peer cannot leave
// local actors blocked forever. Unknown edges are ignored for the same
// reason DeliverData drops them.
func (r *Runtime) CloseEdge(id EdgeID) { r.edge(id).close() }
