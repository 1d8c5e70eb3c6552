package spi

import (
	"fmt"
)

// Remote edge binding: one half of a Runtime edge — its Sender or its
// Receiver — can be bound to a network link, turning the in-process
// shared-memory edge into one end of an interprocessor edge between OS
// processes. The Sender/Receiver API is unchanged: Send encodes the
// message with the same SPI_static / SPI_dynamic wire format and hands it
// to the link; inbound messages and acknowledgements are injected by the
// transport layer through DeliverData / DeliverAck. Buffer synchronization
// crosses the wire too:
//
//   - BBS: the sender blocks while Capacity messages are unacknowledged;
//     the remote receiver returns one credit (an ACK frame) per consumed
//     message, exactly the shared read-pointer the in-process protocol
//     maintains.
//   - UBS: the sender never blocks; acknowledgements keep the sent/acked
//     window consistent for the dynamic buffer bookkeeping.
//
// The binding deliberately does not know about package transport: any
// MessageLink implementation works, and transport.Link satisfies the
// interface.

// MessageLink is the subset of a transport link the runtime needs: framed
// delivery of SPI-encoded messages, acknowledgement counts, and per-edge
// FIN markers. All methods must be safe for concurrent use.
type MessageLink interface {
	// SendData transmits one SPI-encoded message (header included).
	SendData(edge uint16, msg []byte) error
	// SendAck transmits a BBS credit / UBS acknowledgement count.
	SendAck(edge uint16, count uint32) error
	// SendFin tells the peer this side of one edge is permanently done —
	// no more data will be produced (out edges) and no more credits
	// returned (in edges). Used by graceful degradation to starve exactly
	// the actors downstream of a failure while the rest of the graph
	// drains.
	SendFin(edge uint16) error
}

// BindRemoteSender routes the edge's Send side over link: payloads are
// encoded as usual but transmitted instead of queued locally, and the
// BBS/UBS window is maintained from acknowledgements delivered via
// DeliverAck. Bind before the first Send; each half binds at most once.
func (r *Runtime) BindRemoteSender(id EdgeID, link MessageLink) error {
	e, err := r.lookup(id)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.remoteTx != nil {
		return fmt.Errorf("spi: edge %d sender already remote-bound", id)
	}
	e.remoteTx = link
	return nil
}

// BindRemoteReceiver marks the edge's Receive side as fed by link:
// messages arrive via DeliverData, and every consumed message sends an
// acknowledgement (BBS credit or UBS ack) back through the link. Bind
// before the first Receive; each half binds at most once.
func (r *Runtime) BindRemoteReceiver(id EdgeID, link MessageLink) error {
	e, err := r.lookup(id)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.remoteRx != nil {
		return fmt.Errorf("spi: edge %d receiver already remote-bound", id)
	}
	e.remoteRx = link
	return nil
}

func (r *Runtime) lookup(id EdgeID) (*edge, error) {
	if e := r.edge(id); e != nil {
		return e, nil
	}
	return nil, fmt.Errorf("spi: edge %d not initialized", id)
}

// DeliverData injects one wire message into the edge's receive queue —
// the transport layer's entry point. Unknown edges and messages arriving
// after close are dropped: both can only happen during shutdown races or
// against a misbehaving peer, and network input must never panic the
// runtime.
func (r *Runtime) DeliverData(edge uint16, msg []byte) {
	e := r.edge(EdgeID(edge))
	if e == nil {
		return
	}
	// Copy into a pooled buffer: the transport layer reuses its read
	// buffer, and the receiver recycles the copy after decoding, so the
	// steady-state delivery path allocates nothing.
	mb := getMsg()
	*mb = append((*mb)[:0], msg...)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		putMsg(mb)
		return
	}
	if depth := e.pushLocked(queued{msg: *mb, buf: mb}); depth > e.stats.MaxQueued {
		e.stats.MaxQueued = depth
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// DeliverAck credits the edge's sender with count acknowledgements from
// the remote receiver, unblocking a BBS sender waiting on its window and
// advancing the UBS sent/acked bookkeeping.
func (r *Runtime) DeliverAck(edge uint16, count uint32) {
	e := r.edge(EdgeID(edge))
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.acked += int64(count)
	e.ackedMsgs.Add(int64(count))
	e.cond.Broadcast()
}

// CloseEdge closes one edge: blocked senders return ErrClosed immediately,
// receivers drain the already-queued messages first. The transport layer
// calls it for every edge of a link that dies, so a lost peer cannot leave
// local actors blocked forever. Unknown edges are ignored for the same
// reason DeliverData drops them.
func (r *Runtime) CloseEdge(id EdgeID) {
	if e := r.edge(id); e != nil {
		e.close()
	}
}
