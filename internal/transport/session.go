package transport

import (
	"encoding/binary"
	"fmt"
)

// Session multiplexing, link wire protocol extension. One Link per node
// pair carries many independent graph sessions: every session frame is a
// normal numbered link frame whose body starts with a u32 session ID, so
// the resend buffer, cumulative acks, and RESUME replay recover every
// live session's traffic with the exact machinery that recovers a single
// run — per-session resume state costs nothing beyond the tag.
//
//	SOPEN   := u32 sid | u16 tlen | tlen * tenant byte   (open request)
//	SOPENOK := u32 sid | u8 status                       (admission verdict)
//	SCLOSE  := u32 sid | u8 status                       (session teardown)
//	SDATA   := u32 sid | SPI-encoded message             (tagged DATA)
//	SACK    := u32 sid | u16 edge | u32 count            (tagged ACK)
//	SFIN    := u32 sid | u16 edge                        (tagged FIN)
//
// Nothing about it is negotiated: a link whose handler is a
// SessionHandler sends and receives session frames, and one whose handler
// is not fails on either.
const (
	frameSOpen   byte = 10
	frameSOpenOK byte = 11
	frameSClose  byte = 12
	frameSData   byte = 13
	frameSAck    byte = 14
	frameSFin    byte = 15

	sessionIDBytes  = 4
	sopenFixedBytes = sessionIDBytes + 2            // sid + tenant length
	sstatusBytes    = sessionIDBytes + 1            // sid + status
	sackBodyBytes   = sessionIDBytes + ackBodyBytes // sid + edge + count
	sfinBodyBytes   = sessionIDBytes + finBodyBytes // sid + edge
	sdataMinBytes   = sessionIDBytes + 2            // sid + SPI header
	maxTenantBytes  = 255                           // tenant name bound
)

// sessionFrame reports whether a frame type is session-tagged.
func sessionFrame(typ byte) bool {
	return typ >= frameSOpen && typ <= frameSFin
}

// SessionHandler extends Handler for links that multiplex sessions.
// Calls are made from the link's reader goroutine in wire order, with the
// same aliasing contract as Handler: the msg slice passed to
// HandleSessionData is valid only for the duration of the call.
type SessionHandler interface {
	Handler
	// HandleSessionOpen delivers a peer's OPEN request. The handler must
	// not block the reader: answering with SendSessionOpenOK can stall on
	// a full resend buffer, so admission runs on its own goroutine.
	HandleSessionOpen(sid uint32, tenant string)
	// HandleSessionOpenOK delivers the admission verdict for a session
	// this side opened.
	HandleSessionOpenOK(sid uint32, status byte)
	// HandleSessionClose delivers a session teardown notice.
	HandleSessionClose(sid uint32, status byte)
	// HandleSessionData / HandleSessionAck / HandleSessionFin are the
	// session-tagged counterparts of HandleData / HandleAck / HandleFin.
	HandleSessionData(sid uint32, edge uint16, msg []byte)
	HandleSessionAck(sid uint32, edge uint16, count uint32)
	HandleSessionFin(sid uint32, edge uint16)
}

func encodeSessionOpen(sid uint32, tenant string) []byte {
	body := make([]byte, sopenFixedBytes+len(tenant))
	binary.LittleEndian.PutUint32(body, sid)
	binary.LittleEndian.PutUint16(body[sessionIDBytes:], uint16(len(tenant)))
	copy(body[sopenFixedBytes:], tenant)
	return body
}

func decodeSessionOpen(body []byte) (sid uint32, tenant string, err error) {
	if len(body) < sopenFixedBytes {
		return 0, "", fmt.Errorf("session open of %d bytes shorter than fixed header", len(body))
	}
	sid = binary.LittleEndian.Uint32(body)
	n := int(binary.LittleEndian.Uint16(body[sessionIDBytes:]))
	if n > maxTenantBytes {
		return 0, "", fmt.Errorf("session open declares %d-byte tenant, limit %d", n, maxTenantBytes)
	}
	if len(body) != sopenFixedBytes+n {
		return 0, "", fmt.Errorf("session open declares %d-byte tenant but carries %d bytes", n, len(body))
	}
	return sid, string(body[sopenFixedBytes:]), nil
}

func decodeSessionStatus(body []byte) (sid uint32, status byte, err error) {
	if len(body) != sstatusBytes {
		return 0, 0, fmt.Errorf("session status frame of %d bytes, want %d", len(body), sstatusBytes)
	}
	return binary.LittleEndian.Uint32(body), body[sessionIDBytes], nil
}

// splitSessionData splits an SDATA body into the session ID and the SPI
// message it tags. The message must be at least an SPI header.
func splitSessionData(body []byte) (sid uint32, msg []byte, err error) {
	if len(body) < sdataMinBytes {
		return 0, nil, fmt.Errorf("session data frame of %d bytes shorter than sid plus an SPI header", len(body))
	}
	return binary.LittleEndian.Uint32(body), body[sessionIDBytes:], nil
}

func decodeSessionAck(body []byte) (sid uint32, edge uint16, count uint32, err error) {
	if len(body) != sackBodyBytes {
		return 0, 0, 0, fmt.Errorf("session ack frame of %d bytes, want %d", len(body), sackBodyBytes)
	}
	return binary.LittleEndian.Uint32(body),
		binary.LittleEndian.Uint16(body[sessionIDBytes:]),
		binary.LittleEndian.Uint32(body[sessionIDBytes+2:]), nil
}

func decodeSessionFin(body []byte) (sid uint32, edge uint16, err error) {
	if len(body) != sfinBodyBytes {
		return 0, 0, fmt.Errorf("session fin frame of %d bytes, want %d", len(body), sfinBodyBytes)
	}
	return binary.LittleEndian.Uint32(body), binary.LittleEndian.Uint16(body[sessionIDBytes:]), nil
}

// SendSessionOpen asks the peer to admit session sid for tenant. The
// answer arrives as HandleSessionOpenOK.
func (l *Link) SendSessionOpen(sid uint32, tenant string) error {
	if len(tenant) > maxTenantBytes {
		return &Error{Op: "send", Addr: l.raddr,
			Err: fmt.Errorf("tenant name of %d bytes, limit %d", len(tenant), maxTenantBytes)}
	}
	return l.sendSession(frameSOpen, encodeSessionOpen(sid, tenant))
}

// SendSessionOpenOK answers a session open with an admission status.
func (l *Link) SendSessionOpenOK(sid uint32, status byte) error {
	var body [sstatusBytes]byte
	binary.LittleEndian.PutUint32(body[:], sid)
	body[sessionIDBytes] = status
	return l.sendSessionFrame(frameSOpenOK, body[:], nil)
}

// SendSessionClose tears one session down with a final status.
func (l *Link) SendSessionClose(sid uint32, status byte) error {
	var body [sstatusBytes]byte
	binary.LittleEndian.PutUint32(body[:], sid)
	body[sessionIDBytes] = status
	if err := l.sendSessionFrame(frameSClose, body[:], nil); err != nil {
		return err
	}
	return nil
}

// SendSessionData transmits one SPI-encoded message on an outbound edge
// of session sid. The sid prefix rides in the frame header build (a
// stack-allocated head copied by buildFrame), so the session hot path
// allocates exactly as much as the untagged one: nothing.
func (l *Link) SendSessionData(sid uint32, edge uint16, msg []byte) error {
	if _, ok := l.out[edge]; !ok {
		return &Error{Op: "send", Addr: l.raddr,
			Err: fmt.Errorf("edge %d is not outbound on this link", edge)}
	}
	var head [sessionIDBytes]byte
	binary.LittleEndian.PutUint32(head[:], sid)
	if err := l.sendSessionFrame(frameSData, head[:], msg); err != nil {
		return err
	}
	l.obs.dataSent.Inc()
	return nil
}

// SendSessionAck transmits a BBS credit / UBS acknowledgement for an
// inbound edge of session sid, staged like any frame.
func (l *Link) SendSessionAck(sid uint32, edge uint16, count uint32) error {
	if _, ok := l.in[edge]; !ok {
		return &Error{Op: "send", Addr: l.raddr,
			Err: fmt.Errorf("edge %d is not inbound on this link", edge)}
	}
	var body [sackBodyBytes]byte
	binary.LittleEndian.PutUint32(body[:], sid)
	binary.LittleEndian.PutUint16(body[sessionIDBytes:], edge)
	binary.LittleEndian.PutUint32(body[sessionIDBytes+2:], count)
	if err := l.sendSessionFrame(frameSAck, body[:], nil); err != nil {
		return err
	}
	l.obs.acksSent.Inc()
	return nil
}

// SendSessionFin marks one edge of session sid finished, the tagged
// counterpart of SendFin.
func (l *Link) SendSessionFin(sid uint32, edge uint16) error {
	_, outOK := l.out[edge]
	_, inOK := l.in[edge]
	if !outOK && !inOK {
		return &Error{Op: "send", Addr: l.raddr,
			Err: fmt.Errorf("edge %d is not declared on this link", edge)}
	}
	var body [sfinBodyBytes]byte
	binary.LittleEndian.PutUint32(body[:], sid)
	binary.LittleEndian.PutUint16(body[sessionIDBytes:], edge)
	if err := l.sendSessionFrame(frameSFin, body[:], nil); err != nil {
		return err
	}
	l.obs.finsSent.Inc()
	l.obs.tr.Instant("link", "fin:send", l.obs.pid, int(edge))
	return nil
}

// dispatchSession routes one inbound session frame to the SessionHandler.
// It returns a protocol error when this side's handler is not one, or the
// frame tags an edge outside the manifest.
func (l *Link) dispatchSession(typ byte, body []byte) error {
	if l.sh == nil {
		return fmt.Errorf("session frame type %d but this link's handler is not a SessionHandler", typ)
	}
	switch typ {
	case frameSOpen:
		sid, tenant, err := decodeSessionOpen(body)
		if err != nil {
			return err
		}
		l.sh.HandleSessionOpen(sid, tenant)
	case frameSOpenOK:
		sid, status, err := decodeSessionStatus(body)
		if err != nil {
			return err
		}
		l.sh.HandleSessionOpenOK(sid, status)
	case frameSClose:
		sid, status, err := decodeSessionStatus(body)
		if err != nil {
			return err
		}
		l.sh.HandleSessionClose(sid, status)
	case frameSData:
		sid, msg, err := splitSessionData(body)
		if err != nil {
			return err
		}
		edge := binary.LittleEndian.Uint16(msg)
		if _, ok := l.in[edge]; !ok {
			return fmt.Errorf("session data frame for undeclared inbound edge %d", edge)
		}
		l.obs.dataRecv.Inc()
		l.sh.HandleSessionData(sid, edge, msg)
	case frameSAck:
		sid, edge, count, err := decodeSessionAck(body)
		if err != nil {
			return err
		}
		if _, ok := l.out[edge]; !ok {
			return fmt.Errorf("session ack frame for undeclared outbound edge %d", edge)
		}
		l.obs.acksRecv.Inc()
		l.sh.HandleSessionAck(sid, edge, count)
	case frameSFin:
		sid, edge, err := decodeSessionFin(body)
		if err != nil {
			return err
		}
		_, inOK := l.in[edge]
		_, outOK := l.out[edge]
		if !inOK && !outOK {
			return fmt.Errorf("session fin frame for undeclared edge %d", edge)
		}
		l.obs.finsRecv.Inc()
		l.obs.tr.Instant("link", "fin:recv", l.obs.pid, int(edge))
		l.sh.HandleSessionFin(sid, edge)
	}
	return nil
}
