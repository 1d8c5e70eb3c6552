package session

import (
	"encoding/binary"
	"fmt"
)

// The session lifecycle rides the link's CTRL frame (transport.CtrlHandler),
// one opcode per message; a session's DATA, ACK and FIN carry its ID as
// their tag. ID 0 is the link's own untagged run, so no session has it.
//
//	OPEN   := u32 sid | tenant       (open request; the tenant is the rest)
//	OPENOK := u32 sid | u8 status    (admission verdict)
//	CLOSE  := u32 sid | u8 status    (session outcome)
const (
	opOpen   byte = 1
	opOpenOK byte = 2
	opClose  byte = 3

	sidBytes       = 4
	statusBytes    = sidBytes + 1
	maxTenantBytes = 255 // tenant name bound
)

// ctrlMsg is one session lifecycle message.
type ctrlMsg struct {
	op     byte
	sid    uint32
	status byte   // OPENOK, CLOSE
	tenant string // OPEN
}

// appendCtrl encodes m's payload onto dst.
func appendCtrl(dst []byte, m ctrlMsg) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, m.sid)
	if m.op == opOpen {
		return append(dst, m.tenant...)
	}
	return append(dst, m.status)
}

// decodeCtrl accepts exactly what appendCtrl emits, so every accepted
// payload re-encodes byte-identically.
func decodeCtrl(op byte, p []byte) (ctrlMsg, error) {
	if len(p) < sidBytes {
		return ctrlMsg{}, fmt.Errorf("session: ctrl op %d of %d bytes, shorter than a session ID", op, len(p))
	}
	m := ctrlMsg{op: op, sid: binary.LittleEndian.Uint32(p)}
	rest := p[sidBytes:]
	switch op {
	case opOpen:
		if len(rest) > maxTenantBytes {
			return ctrlMsg{}, fmt.Errorf("session: open names a %d-byte tenant, limit %d", len(rest), maxTenantBytes)
		}
		m.tenant = string(rest)
	case opOpenOK, opClose:
		if len(p) != statusBytes {
			return ctrlMsg{}, fmt.Errorf("session: ctrl op %d of %d bytes, want %d", op, len(p), statusBytes)
		}
		m.status = rest[0]
	default:
		return ctrlMsg{}, fmt.Errorf("session: unknown ctrl op %d", op)
	}
	return m, nil
}

// send encodes m into a stack array and sends it on the bound link.
func (m *Mux) send(msg ctrlMsg) error {
	var buf [sidBytes + maxTenantBytes]byte
	return m.Link().SendCtrl(msg.op, appendCtrl(buf[:0], msg))
}

// SendOpenOK answers session sid's OPEN with an admission status.
func (m *Mux) SendOpenOK(sid uint32, status byte) error {
	return m.send(ctrlMsg{op: opOpenOK, sid: sid, status: status})
}

// SendClose ends session sid with its outcome.
func (m *Mux) SendClose(sid uint32, status byte) error {
	return m.send(ctrlMsg{op: opClose, sid: sid, status: status})
}
