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
//	Mux                routes tagged DATA/ACK/FIN to per-session Streams,
//	                   and the lifecycle's CTRL messages (ctrl.go)
//	Stream             spi.MessageLink + spi.LinkProvider for one session
//	Server / Client    OPEN/OPENOK/CLOSE lifecycle, admission, execution
//
// Because a session's frames are the link's ordinary numbered frames
// with its ID as their tag, a severed connection replays every live
// session's unacknowledged tail in one RESUME handshake — per-session
// resume rides the link-level machinery.
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

// Admission verdicts carried in OPENOK messages.
const (
	// StatusAdmitted means the session is live; tagged traffic may flow.
	StatusAdmitted byte = 0
	// StatusRejectedCapacity means the node is at MaxSessions with no
	// degraded session to shed.
	StatusRejectedCapacity byte = 1
	// StatusRejectedQuota means the tenant is at its per-tenant session
	// cap (quota or weighted fair share).
	StatusRejectedQuota byte = 2
	// StatusRejectedID means the OPEN named session ID 0 (the link's
	// untagged run) or an ID already live on the link; the live session
	// is left untouched.
	StatusRejectedID byte = 3
)

// Session outcomes carried in CLOSE messages.
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
	case StatusRejectedID:
		return "rejected-session-id"
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
// transport.SessionHandler and transport.CtrlHandler: tagged frames
// dispatch to the Stream registered under their session ID, lifecycle
// messages arrive as CTRL frames, and untagged frames belong to no session
// and count as dropped. Create the Mux first, pass it as the link's
// handler, then Bind the established link.
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
			"session frames for unknown or already-closed sessions, untagged or malformed"),
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
// The ID is never 0, nor one still live after the counter wraps.
func (m *Mux) NewStream(peer int) *Stream {
	m.mu.Lock()
	m.nextSID++
	for m.nextSID == 0 || m.streams[m.nextSID] != nil {
		m.nextSID++
	}
	s := newStream(m, m.nextSID, peer)
	m.streams[s.sid] = s
	if m.closed {
		s.linkClosed(m.closeErr)
	}
	m.mu.Unlock()
	return s
}

// Adopt registers a server-side stream for a peer-allocated session ID. It
// returns nil, registering nothing, for ID 0 or an ID already live on this
// mux: a repeated OPEN must not take a live session's routing over.
func (m *Mux) Adopt(sid uint32, peer int) *Stream {
	m.mu.Lock()
	if sid == 0 || m.streams[sid] != nil {
		m.mu.Unlock()
		return nil
	}
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

// HandleCtrl is the CtrlHandler half: one lifecycle message. An OPEN goes
// to the open callback (the server's admission queue), a verdict or an
// outcome to the stream it names; a malformed message, or one for no live
// session, counts as dropped.
func (m *Mux) HandleCtrl(op byte, payload []byte) {
	msg, err := decodeCtrl(op, payload)
	if err != nil {
		m.dropped.Inc()
		return
	}
	if msg.op == opOpen {
		m.mu.Lock()
		fn := m.onOpen
		if fn == nil {
			m.pendingOpens = append(m.pendingOpens, openEvent{sid: msg.sid, tenant: msg.tenant})
		}
		m.mu.Unlock()
		if fn != nil {
			fn(m, msg.sid, msg.tenant)
		}
		return
	}
	s := m.lookup(msg.sid)
	switch {
	case s == nil:
		m.dropped.Inc()
	case msg.op == opOpenOK:
		s.handleOpenOK(msg.status)
	default:
		s.handleClose(msg.status)
	}
}

// SessionHandler half: tagged traffic routes by session ID.

func (m *Mux) HandleSessionData(sid uint32, edge uint16, msg []byte) {
	m.deliver(sid, event{kind: evData, edge: edge, msg: msg})
}

func (m *Mux) HandleSessionAck(sid uint32, edge uint16, count uint32) {
	m.deliver(sid, event{kind: evAck, edge: edge, count: count})
}

func (m *Mux) HandleSessionFin(sid uint32, edge uint16) {
	m.deliver(sid, event{kind: evFin, edge: edge})
}

// deliver routes one tagged event to its session; one for no live session
// counts as dropped.
func (m *Mux) deliver(sid uint32, ev event) {
	if s := m.lookup(sid); s != nil {
		s.deliver(ev)
	} else {
		m.dropped.Inc()
	}
}

// event is one inbound DATA, ACK or FIN of a session.
type event struct {
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

// to hands the event to h.
func (ev event) to(h transport.Handler) {
	switch ev.kind {
	case evData:
		h.HandleData(ev.edge, ev.msg)
	case evAck:
		h.HandleAck(ev.edge, ev.count)
	default:
		h.HandleFin(ev.edge)
	}
}

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
	pending   []event
	closed    bool
	closeErr  error
	edges     []uint16         // every edge the execution declared in Connect
	declBytes map[uint16]int64 // inbound UBS edge -> declared payload bound
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

// SendBuffer transmits one SPI-encoded message, tagged with the session ID,
// and takes its buffer (transport.Link.SendBuffer). The tagged path
// allocates nothing beyond what an untagged link send does.
func (s *Stream) SendBuffer(edge uint16, buf *[]byte) error {
	return s.mux.link.SendSessionBuffer(s.sid, edge, buf)
}

// SendAck transmits a UBS acknowledgement and retires the acknowledged
// messages from the session's queued-byte estimate.
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
// stream carries exactly one peer, fixed at open time. From then on only
// inbound UBS edges count toward the queued-byte estimate: the plan bounds a
// BBS edge, which sends no acknowledgement that could retire its bytes.
func (s *Stream) Connect(peer int, decls []transport.EdgeDecl, h transport.Handler) (spi.MessageLink, error) {
	if peer != s.peer {
		return nil, fmt.Errorf("session %d: execution wants peer %d, stream carries peer %d", s.sid, peer, s.peer)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inner != nil {
		return nil, errors.New("session: stream already bound to an execution")
	}
	s.declBytes = make(map[uint16]int64, len(decls))
	for _, d := range decls {
		s.edges = append(s.edges, d.ID)
		if !d.Out && spi.Protocol(d.Protocol) == spi.UBS {
			s.declBytes[d.ID] = int64(d.Bytes)
		}
	}
	s.inner = h
	pend := s.pending
	s.pending = nil
	for _, ev := range pend {
		if _, ubs := s.declBytes[ev.edge]; !ubs { // counted before the edge's protocol was known
			s.account(-int64(len(ev.msg)))
		}
		ev.to(h)
	}
	if s.closed {
		h.HandleLinkClose(s.closeErr)
	}
	return s, nil
}

// Finish ends the execution's use of the stream. An abortive finish FINs
// every edge the execution declared, as a degraded run's starve does, so
// the peer's half of the session unwinds instead of waiting on a run that
// is gone. The stream itself stays registered — session teardown (CLOSE,
// release) belongs to the Server/Client lifecycle, not the execution.
func (s *Stream) Finish(graceful bool) {
	if graceful {
		return
	}
	s.mu.Lock()
	edges := s.edges
	s.mu.Unlock()
	for _, id := range edges {
		// Best effort: the link may be the very thing that failed.
		_ = s.SendFin(id)
	}
}

// deliver hands one inbound event, from the link reader via the Mux, to
// the execution — or, until one connects, buffers it (the client's OPEN
// races its ExecuteDistributed call; the server's admission verdict races
// its kernel instantiation), copying a payload the reader's buffer will not
// keep. Events are delivered or buffered under the stream lock, which
// serializes them against Connect's replay: an execution observes the
// exact wire order.
func (s *Stream) deliver(ev event) {
	s.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if _, ubs := s.declBytes[ev.edge]; ubs || s.inner == nil { // only data has bytes
		s.account(int64(len(ev.msg)))
	}
	if s.inner != nil {
		ev.to(s.inner)
		return
	}
	ev.msg = append([]byte(nil), ev.msg...)
	s.pending = append(s.pending, ev)
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

// account moves the queued-byte estimate by delta, never below zero, and
// reports the move to the tenant's budget. Caller holds s.mu.
func (s *Stream) account(delta int64) {
	if delta = max(delta, -s.queued); s.acct != nil && delta != 0 {
		s.queued += delta
		s.acct(delta)
	}
}

// noteConsumed retires count acknowledged messages from the queued-byte
// estimate, valued at the edge's declared payload bound.
func (s *Stream) noteConsumed(edge uint16, count uint32) {
	s.mu.Lock()
	s.account(-int64(count) * s.declBytes[edge])
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
