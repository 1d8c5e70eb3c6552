package transport

import (
	"fmt"
)

// Control-plane frames. A layer above the transport runs its own
// conversation over an ordinary link as CTRL frames: a numbered link frame
// whose body is a one-byte opcode followed by an opaque payload the
// transport never interprets. One control frame serves both control
// planes: the orchestration layer (internal/orch) carries its
// coordinator↔worker conversation on it, and the session layer
// (internal/session) opens, admits and closes sessions on it. No link
// carries both, so each plane numbers its opcodes on its own. Numbering
// matters — CTRL frames ride the resend buffer, cumulative acks, and RESUME
// replay exactly like DATA, so a worker that loses its connection
// mid-dispatch reconnects and replays the tail of the control conversation
// instead of desynchronizing from the coordinator.
//
//	CTRL := u8 op | payload
//
// Nothing about it is negotiated: a link whose handler is a CtrlHandler
// sends and receives CTRL frames, and one whose handler is not fails on
// either.
const (
	ctrlMinBytes = 1 // opcode

	// MaxCtrlPayload bounds one control payload. Partition specs for
	// realistic graphs are a few KiB; the bound exists so a hostile or
	// corrupted opcode cannot commit the receiver to buffering an
	// arbitrarily large body.
	MaxCtrlPayload = 1 << 20
)

// CtrlHandler extends Handler for links that carry a control plane. Calls
// are made from the link's reader goroutine in wire order, with the same
// aliasing contract as Handler: the payload slice passed to HandleCtrl is
// valid only for the duration of the call.
type CtrlHandler interface {
	Handler
	// HandleCtrl delivers one inbound control message. The handler must
	// not block the reader; replying with SendCtrl can stall on a full
	// resend buffer, so responses run on their own goroutine.
	HandleCtrl(op byte, payload []byte)
}

// SendCtrl transmits one control message to the peer. CTRL frames are
// numbered (resend-buffered, RESUME-replayed) like DATA. The payload is
// copied before SendCtrl returns and does not escape, so a caller may
// build it in a stack array.
func (l *Link) SendCtrl(op byte, payload []byte) error {
	if l.ch == nil {
		return l.sendError("ctrl frames need a link whose handler is a CtrlHandler")
	}
	if len(payload) > MaxCtrlPayload {
		return l.sendError("ctrl payload of %d bytes exceeds limit %d", len(payload), MaxCtrlPayload)
	}
	head := [ctrlMinBytes]byte{op}
	return l.sendFrame(frameCtrl, frameOf(head[:], payload))
}

// dispatchCtrl routes one inbound CTRL frame to the CtrlHandler. It
// returns a protocol error when this side's handler is not one or the
// frame is malformed.
func (l *Link) dispatchCtrl(body []byte) error {
	switch {
	case l.ch == nil:
		return fmt.Errorf("ctrl frame but this link's handler is not a CtrlHandler")
	case len(body) < ctrlMinBytes:
		return fmt.Errorf("ctrl frame with empty body")
	case len(body)-ctrlMinBytes > MaxCtrlPayload:
		return fmt.Errorf("ctrl payload of %d bytes exceeds limit %d", len(body)-ctrlMinBytes, MaxCtrlPayload)
	}
	l.ch.HandleCtrl(body[0], body[ctrlMinBytes:])
	return nil
}
