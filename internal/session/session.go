// Package session multiplexes many concurrent executions of one dataflow
// graph over a single transport.Link per node pair. The paper's framework
// runs one graph per deployment; serving thousands of independent
// per-user streams means packing thousands of *sessions* of that graph
// onto one spinode pool without paying a connection, handshake, or
// resend-buffer per session — per-pair connection state stays O(1) in the
// session count.
//
// The layering:
//
//	transport.Link     one connection, one resend buffer, RESUME replay
//	Mux                routes session-tagged frames to per-session Streams
//	Stream             spi.MessageLink + spi.LinkProvider for one session
//	Server / Client    OPEN/OPENOK/CLOSE lifecycle, admission, execution
//
// Because session frames are ordinary numbered link frames (see
// transport), a severed connection replays every live session's
// unacknowledged tail in one RESUME handshake — per-session resume rides
// the link-level machinery.
package session

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/spi"
	"repro/internal/transport"
)

// Admission verdicts carried in OPENOK frames.
const (
	// StatusAdmitted means the session is live; tagged traffic may flow.
	StatusAdmitted byte = 0
	// StatusRejectedCapacity means the node is at MaxSessions with no
	// degraded session to shed.
	StatusRejectedCapacity byte = 1
	// StatusRejectedQuota means the tenant is at its per-tenant session
	// cap (quota or weighted fair share).
	StatusRejectedQuota byte = 2
)

// Session outcomes carried in CLOSE frames.
const (
	// CloseDone is a completed run.
	CloseDone byte = 0
	// CloseShed means admission control evicted the session (it was
	// degraded and capacity was needed for a new open).
	CloseShed byte = 1
	// CloseError is a failed run.
	CloseError byte = 2
)

// StatusString renders an admission or close status for logs.
func StatusString(status byte) string {
	switch status {
	case StatusAdmitted:
		return "admitted"
	case StatusRejectedCapacity:
		return "rejected-capacity"
	case StatusRejectedQuota:
		return "rejected-quota"
	default:
		return fmt.Sprintf("status-%d", status)
	}
}

// closeString renders a close status for logs.
func closeString(status byte) string {
	switch status {
	case CloseDone:
		return "done"
	case CloseShed:
		return "shed"
	case CloseError:
		return "error"
	default:
		return fmt.Sprintf("close-%d", status)
	}
}

// Mux owns one link's session routing table. It is the link's
// transport.Handler and transport.SessionHandler: tagged frames dispatch
// to the Stream registered under their session ID; untagged frames belong
// to no session and count as dropped. Create the Mux first, pass it as the
// link's handler, then Bind the established link.
type Mux struct {
	mu           sync.Mutex
	link         *transport.Link
	bound        chan struct{}
	streams      map[uint32]*Stream
	nextSID      uint32
	onOpen       func(m *Mux, sid uint32, tenant string)
	pendingOpens []openEvent
	closed       bool
	closeErr     error
	onClose      func() // Server.Serve's hook: the link died, stop routing RESUMEs to it

	dropped *obs.Counter
}

type openEvent struct {
	sid    uint32
	tenant string
}

// NewMux returns an empty routing table. o, when non-nil, exports the
// mux's dropped-frame counter.
func NewMux(o *obs.Observer) *Mux {
	return &Mux{
		bound:   make(chan struct{}),
		streams: map[uint32]*Stream{},
		onClose: func() {},
		dropped: o.Counter("session_frames_dropped_total",
			"session frames for unknown or already-closed sessions"),
	}
}

// Bind attaches the established link. Inbound dispatch works before Bind
// (the reader can race link construction); sends wait for it.
func (m *Mux) Bind(l *transport.Link) {
	m.mu.Lock()
	m.link = l
	m.mu.Unlock()
	close(m.bound)
}

// Link returns the bound link, blocking until Bind.
func (m *Mux) Link() *transport.Link {
	<-m.bound
	return m.link
}

// SetOnOpen installs the inbound OPEN callback (the server's admission
// queue) and replays any opens that arrived before it was set. The
// callback must not block the caller for long — it runs on the link's
// reader goroutine.
func (m *Mux) SetOnOpen(fn func(m *Mux, sid uint32, tenant string)) {
	m.mu.Lock()
	m.onOpen = fn
	pend := m.pendingOpens
	m.pendingOpens = nil
	m.mu.Unlock()
	for _, ev := range pend {
		fn(m, ev.sid, ev.tenant)
	}
}

// NewStream allocates a client-side stream with a fresh session ID and
// registers it, so the OPENOK (and any data racing it) finds its session.
func (m *Mux) NewStream(peer int) *Stream {
	m.mu.Lock()
	m.nextSID++
	s := newStream(m, m.nextSID, peer)
	m.streams[s.sid] = s
	if m.closed {
		s.linkClosed(m.closeErr)
	}
	m.mu.Unlock()
	return s
}

// Adopt registers a server-side stream for a peer-allocated session ID.
func (m *Mux) Adopt(sid uint32, peer int) *Stream {
	m.mu.Lock()
	s := newStream(m, sid, peer)
	m.streams[sid] = s
	if m.closed {
		s.linkClosed(m.closeErr)
	}
	m.mu.Unlock()
	return s
}

// Release drops one session from the routing table; later frames for the
// ID count as dropped.
func (m *Mux) Release(s *Stream) {
	m.mu.Lock()
	if cur := m.streams[s.sid]; cur == s {
		delete(m.streams, s.sid)
	}
	m.mu.Unlock()
}

func (m *Mux) lookup(sid uint32) *Stream {
	m.mu.Lock()
	s := m.streams[sid]
	m.mu.Unlock()
	return s
}

// Handler half: every frame of a session link is session-tagged, so
// untagged traffic has no session to go to.

func (m *Mux) HandleData(edge uint16, msg []byte)  { m.dropped.Inc() }
func (m *Mux) HandleAck(edge uint16, count uint32) { m.dropped.Inc() }
func (m *Mux) HandleFin(edge uint16)               { m.dropped.Inc() }

// HandleLinkClose fans the link's death (or graceful end) out to every
// live session: each stream's execution observes exactly what it would
// have on a dedicated link.
func (m *Mux) HandleLinkClose(err error) {
	m.mu.Lock()
	m.closed = true
	m.closeErr = err
	streams := make([]*Stream, 0, len(m.streams))
	for _, s := range m.streams {
		streams = append(streams, s)
	}
	m.mu.Unlock()
	for _, s := range streams {
		s.linkClosed(err)
	}
	m.onClose()
}

// SessionHandler half: tagged traffic routes by session ID.

func (m *Mux) HandleSessionOpen(sid uint32, tenant string) {
	m.mu.Lock()
	fn := m.onOpen
	if fn == nil {
		m.pendingOpens = append(m.pendingOpens, openEvent{sid: sid, tenant: tenant})
	}
	m.mu.Unlock()
	if fn != nil {
		fn(m, sid, tenant)
	}
}

func (m *Mux) HandleSessionOpenOK(sid uint32, status byte) {
	if s := m.lookup(sid); s != nil {
		s.handleOpenOK(status)
	} else {
		m.dropped.Inc()
	}
}

func (m *Mux) HandleSessionClose(sid uint32, status byte) {
	if s := m.lookup(sid); s != nil {
		s.handleClose(status)
	} else {
		m.dropped.Inc()
	}
}

func (m *Mux) HandleSessionData(sid uint32, edge uint16, msg []byte) {
	if s := m.lookup(sid); s != nil {
		s.handleData(edge, msg)
	} else {
		m.dropped.Inc()
	}
}

func (m *Mux) HandleSessionAck(sid uint32, edge uint16, count uint32) {
	if s := m.lookup(sid); s != nil {
		s.handleAck(edge, count)
	} else {
		m.dropped.Inc()
	}
}

func (m *Mux) HandleSessionFin(sid uint32, edge uint16) {
	if s := m.lookup(sid); s != nil {
		s.handleFin(edge)
	} else {
		m.dropped.Inc()
	}
}

// pendingEvent buffers one inbound event that arrived before the
// session's execution attached its handler (the client's OPEN races its
// ExecuteDistributed call; the server's admission verdict races its
// kernel instantiation). Data payloads are copied — the link reader's
// buffer does not outlive the dispatch.
type pendingEvent struct {
	kind  byte
	edge  uint16
	count uint32
	msg   []byte
}

const (
	evData byte = iota
	evAck
	evFin
)

// Stream is one session's half of the shared link: an spi.MessageLink
// that tags outbound traffic with the session ID, and an
// spi.LinkProvider handing a session-scoped execution its inbound
// dispatch.
type Stream struct {
	mux  *Mux
	sid  uint32
	peer int

	mu        sync.Mutex
	inner     transport.Handler
	pending   []pendingEvent
	closed    bool
	closeErr  error
	declBytes map[uint16]int64 // inbound edge -> declared payload bound
	queued    int64            // estimated inbound bytes delivered but unconsumed
	acct      func(delta int64)

	openCh   chan byte
	closeCh  chan byte
	done     chan struct{}
	doneOnce sync.Once

	// Liveness bookkeeping for the server's reaper and /healthz: when the
	// stream was created and (atomically, so the reaper never takes the
	// stream lock) when the peer was last heard from on it.
	opened     time.Time
	lastActive atomic.Int64 // UnixNano
}

func newStream(m *Mux, sid uint32, peer int) *Stream {
	s := &Stream{
		mux:     m,
		sid:     sid,
		peer:    peer,
		openCh:  make(chan byte, 1),
		closeCh: make(chan byte, 1),
		done:    make(chan struct{}),
		opened:  time.Now(),
	}
	s.lastActive.Store(s.opened.UnixNano())
	return s
}

// touch refreshes the stream's last-activity stamp.
func (s *Stream) touch() { s.lastActive.Store(time.Now().UnixNano()) }

// Age is the time since the session opened.
func (s *Stream) Age() time.Duration { return time.Since(s.opened) }

// IdleFor is the time since the peer was last heard from on this session.
func (s *Stream) IdleFor() time.Duration {
	return time.Duration(time.Now().UnixNano() - s.lastActive.Load())
}

// SID returns the session ID.
func (s *Stream) SID() uint32 { return s.sid }

// setAccount installs the per-tenant byte accounting callback. It is
// invoked with positive deltas as inbound data queues and negative ones
// as local consumption acknowledges it, always outside the stream lock's
// critical section ordering concerns: callers must not call back into
// the stream.
func (s *Stream) setAccount(fn func(delta int64)) {
	s.mu.Lock()
	s.acct = fn
	s.mu.Unlock()
}

// MessageLink half — the session send path.

// SendData transmits one SPI-encoded message, tagged with the session ID.
// The tagged path allocates nothing beyond what an untagged link send does.
func (s *Stream) SendData(edge uint16, msg []byte) error {
	return s.mux.link.SendSessionData(s.sid, edge, msg)
}

// SendAck transmits a BBS credit / UBS acknowledgement and retires the
// acknowledged messages from the session's queued-byte estimate.
func (s *Stream) SendAck(edge uint16, count uint32) error {
	s.noteConsumed(edge, count)
	return s.mux.link.SendSessionAck(s.sid, edge, count)
}

// SendFin marks one edge of the session finished.
func (s *Stream) SendFin(edge uint16) error {
	return s.mux.link.SendSessionFin(s.sid, edge)
}

// LinkProvider half — a session-scoped ExecuteDistributed binds here.

// Connect attaches the execution's inbound handler and replays, in
// arrival order, everything buffered since the session opened. The
// stream carries exactly one peer, fixed at open time.
func (s *Stream) Connect(peer int, decls []transport.EdgeDecl, h transport.Handler) (spi.MessageLink, error) {
	if peer != s.peer {
		return nil, fmt.Errorf("session %d: execution wants peer %d, stream carries peer %d", s.sid, peer, s.peer)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inner != nil {
		return nil, errors.New("session: stream already bound to an execution")
	}
	if s.declBytes == nil {
		s.declBytes = make(map[uint16]int64, len(decls))
	}
	for _, d := range decls {
		if !d.Out {
			s.declBytes[d.ID] = int64(d.Bytes)
		}
	}
	s.inner = h
	pend := s.pending
	s.pending = nil
	for _, ev := range pend {
		switch ev.kind {
		case evData:
			h.HandleData(ev.edge, ev.msg)
		case evAck:
			h.HandleAck(ev.edge, ev.count)
		case evFin:
			h.HandleFin(ev.edge)
		}
	}
	if s.closed {
		h.HandleLinkClose(s.closeErr)
	}
	return s, nil
}

// Finish ends the execution's use of the stream. The stream itself stays
// registered — session teardown (CLOSE, release) belongs to the
// Server/Client lifecycle, not the execution.
func (s *Stream) Finish(graceful bool) {}

// Inbound dispatch, called from the link reader via the Mux. Events are
// delivered (or buffered) under the stream lock, which serializes them
// against Connect's replay: an execution observes the exact wire order.

func (s *Stream) handleData(edge uint16, msg []byte) {
	s.touch()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.acct != nil {
		s.queued += int64(len(msg))
		s.acct(int64(len(msg)))
	}
	if h := s.inner; h != nil {
		h.HandleData(edge, msg)
		s.mu.Unlock()
		return
	}
	cp := make([]byte, len(msg))
	copy(cp, msg)
	s.pending = append(s.pending, pendingEvent{kind: evData, edge: edge, msg: cp})
	s.mu.Unlock()
}

func (s *Stream) handleAck(edge uint16, count uint32) {
	s.touch()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if h := s.inner; h != nil {
		h.HandleAck(edge, count)
		s.mu.Unlock()
		return
	}
	s.pending = append(s.pending, pendingEvent{kind: evAck, edge: edge, count: count})
	s.mu.Unlock()
}

func (s *Stream) handleFin(edge uint16) {
	s.touch()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if h := s.inner; h != nil {
		h.HandleFin(edge)
		s.mu.Unlock()
		return
	}
	s.pending = append(s.pending, pendingEvent{kind: evFin, edge: edge})
	s.mu.Unlock()
}

func (s *Stream) handleOpenOK(status byte) {
	select {
	case s.openCh <- status:
	default:
	}
}

func (s *Stream) handleClose(status byte) {
	select {
	case s.closeCh <- status:
	default:
	}
	// A graceful close arrives after both halves of the run finished; a
	// shed or error close must also unwind whatever execution is still
	// attached on this side.
	if status != CloseDone {
		s.linkClosed(fmt.Errorf("session %d closed by peer: %s", s.sid, closeString(status)))
	}
}

// linkClosed ends the session because the link under it ended: the
// execution (attached now or later) sees HandleLinkClose, and waiters on
// open/close verdicts unblock. The error is always non-nil from here
// down: a graceful link GOODBYE still strands any session that has not
// finished its own CLOSE handshake, so executions must treat it as
// fatal, not as the benign end-of-peer a dedicated link would mean.
func (s *Stream) linkClosed(err error) {
	if err == nil {
		err = fmt.Errorf("session %d: link closed", s.sid)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.closeErr = err
	if h := s.inner; h != nil {
		h.HandleLinkClose(err)
	}
	s.mu.Unlock()
	s.doneOnce.Do(func() { close(s.done) })
}

// shed evicts a running session: its execution observes a link failure
// (edges close, the run errors out with ErrClosed) while the shared link
// and every other session stay up.
func (s *Stream) shed() {
	s.linkClosed(fmt.Errorf("session %d shed by admission control", s.sid))
}

// reap is shed for a silent client: the session's peer has sent nothing
// for idle, so the server evicts it rather than hold its slot forever.
func (s *Stream) reap(idle time.Duration) {
	s.linkClosed(fmt.Errorf("session %d reaped: client silent for %v", s.sid, idle))
}

// linkError returns the stream's terminal error, if any.
func (s *Stream) linkError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErr
}

// noteConsumed retires count acknowledged messages from the queued-byte
// estimate, valued at the edge's declared payload bound.
func (s *Stream) noteConsumed(edge uint16, count uint32) {
	s.mu.Lock()
	if s.acct == nil {
		s.mu.Unlock()
		return
	}
	delta := int64(count) * s.declBytes[edge]
	if delta > s.queued {
		delta = s.queued
	}
	if delta > 0 {
		s.queued -= delta
		s.acct(-delta)
	}
	s.mu.Unlock()
}

// takeQueued zeroes and returns the queued-byte estimate — the release
// path returns it to the tenant's budget in one step.
func (s *Stream) takeQueued() int64 {
	s.mu.Lock()
	q := s.queued
	s.queued = 0
	s.mu.Unlock()
	return q
}
