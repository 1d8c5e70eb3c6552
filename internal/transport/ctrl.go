package transport

import (
	"fmt"
)

// Control-plane frames, link wire protocol extension. The orchestration
// layer (internal/orch) runs its coordinator↔worker conversation over
// ordinary links as CTRL frames: a numbered link frame whose body is a
// one-byte opcode followed by an opaque payload the transport never
// interprets. Numbering matters — CTRL frames ride the resend buffer,
// cumulative acks, and RESUME replay exactly like DATA, so a worker that
// loses its connection mid-dispatch reconnects and replays the tail of
// the control conversation instead of desynchronizing from the
// coordinator.
//
//	CTRL := u8 op | payload
//
// Nothing about it is negotiated: a link whose handler is a CtrlHandler
// sends and receives CTRL frames, and one whose handler is not fails on
// either.
const (
	frameCtrl byte = 18

	ctrlMinBytes = 1 // opcode

	// MaxCtrlPayload bounds one control payload. Partition specs for
	// realistic graphs are a few KiB; the bound exists so a hostile or
	// corrupted opcode cannot commit the receiver to buffering an
	// arbitrarily large body.
	MaxCtrlPayload = 1 << 20
)

// CtrlHandler extends Handler for links that carry the control plane. Calls
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

// encodeCtrl builds a CTRL body: opcode followed by the opaque payload.
func encodeCtrl(op byte, payload []byte) []byte {
	body := make([]byte, ctrlMinBytes+len(payload))
	body[0] = op
	copy(body[ctrlMinBytes:], payload)
	return body
}

// decodeCtrl splits a CTRL body into opcode and payload.
func decodeCtrl(body []byte) (op byte, payload []byte, err error) {
	if len(body) < ctrlMinBytes {
		return 0, nil, fmt.Errorf("ctrl frame with empty body")
	}
	if len(body)-ctrlMinBytes > MaxCtrlPayload {
		return 0, nil, fmt.Errorf("ctrl payload of %d bytes exceeds limit %d",
			len(body)-ctrlMinBytes, MaxCtrlPayload)
	}
	return body[0], body[ctrlMinBytes:], nil
}

// SendCtrl transmits one control message to the peer. CTRL frames are
// numbered (resend-buffered, RESUME-replayed) like any session frame.
func (l *Link) SendCtrl(op byte, payload []byte) error {
	if len(payload) > MaxCtrlPayload {
		return &Error{Op: "send", Addr: l.raddr,
			Err: fmt.Errorf("ctrl payload of %d bytes exceeds limit %d", len(payload), MaxCtrlPayload)}
	}
	head := [ctrlMinBytes]byte{op}
	if err := l.sendSessionFrame(frameCtrl, head[:], payload); err != nil {
		return err
	}
	return nil
}

// dispatchCtrl routes one inbound CTRL frame to the CtrlHandler. It
// returns a protocol error when this side's handler is not one.
func (l *Link) dispatchCtrl(body []byte) error {
	if l.ch == nil {
		return fmt.Errorf("ctrl frame but this link's handler is not a CtrlHandler")
	}
	op, payload, err := decodeCtrl(body)
	if err != nil {
		return err
	}
	l.ch.HandleCtrl(op, payload)
	return nil
}
