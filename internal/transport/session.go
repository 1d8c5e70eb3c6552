package transport

// Session multiplexing. One Link per node pair carries many independent
// graph sessions: a DATA, ACK or FIN whose tag is not 0 belongs to the
// session the tag names, and is otherwise the same frame on the same path —
// numbered, resend-buffered, RESUME-replayed, and (for ACK) merged per tag
// and edge in the writer's pass. The transport knows tags, not sessions:
// opening, admitting and closing one is the session layer's conversation,
// carried on CTRL frames (see ctrl.go and internal/session).
//
// Nothing about it is negotiated: a link whose handler is a SessionHandler
// sends and receives tagged frames, and one whose handler is not refuses to
// send them and fails, naming the session, when its peer does.

// SessionHandler extends Handler for links that multiplex sessions: tag 0
// goes to the Handler methods, any other tag to these. Calls are made from
// the link's reader goroutine in wire order, with the same aliasing
// contract as Handler: the msg slice passed to HandleSessionData is valid
// only for the duration of the call.
type SessionHandler interface {
	Handler
	HandleSessionData(sid uint32, edge uint16, msg []byte)
	HandleSessionAck(sid uint32, edge uint16, count uint32)
	HandleSessionFin(sid uint32, edge uint16)
}

// SendSessionBuffer is SendBuffer for session sid. The tag is written into
// the buffer's headroom with the frame header, so the session hot path
// allocates exactly as much as the untagged one: nothing.
func (l *Link) SendSessionBuffer(sid uint32, edge uint16, buf *[]byte) error {
	return l.sendData(sid, edge, buf)
}

// SendSessionAck is SendAck for session sid: it queues exactly like
// SendAck, and the writer's pass merges it with session sid's other acks
// for the edge, never with another session's.
func (l *Link) SendSessionAck(sid uint32, edge uint16, count uint32) error {
	return l.sendAck(sid, edge, count)
}

// SendSessionFin is SendFin for session sid.
func (l *Link) SendSessionFin(sid uint32, edge uint16) error {
	return l.sendFin(sid, edge)
}
