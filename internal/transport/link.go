package transport

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Handler receives a Link's inbound traffic. Calls are made from the
// link's single reader goroutine, in wire order. The msg slice passed to
// HandleData aliases the reader's reusable frame buffer: it is valid
// only for the duration of the call, and a handler that keeps the bytes
// must copy them. HandleLinkClose is called exactly once — with nil
// after a graceful GOODBYE, with an error when the connection died (and,
// if reconnection is enabled, every recovery attempt was exhausted) or
// the peer violated the protocol.
type Handler interface {
	HandleData(edge uint16, msg []byte)
	HandleAck(edge uint16, count uint32)
	// HandleFin marks one edge as finished by the peer: no more DATA will
	// arrive on an inbound edge, no more ACKs on an outbound one.
	// Degrading nodes use it to release actors blocked on a dead peer.
	HandleFin(edge uint16)
	HandleLinkClose(err error)
}

// LinkConfig parameterizes one link endpoint.
type LinkConfig struct {
	// Node is the local PE-group identity exchanged in the handshake.
	Node int
	// Edges is the manifest of SPI edges this link carries, from the
	// local perspective. The handshake fails unless the peer declares
	// the same edges with complementary directions and identical
	// mode/bytes/protocol/capacity.
	Edges []EdgeDecl
	// Reconnect is the link-resumption policy. The zero value fails
	// fast on the first connection error, exactly like links behaved
	// before resumption existed.
	Reconnect ReconnectConfig
	// Redial re-establishes the transport connection during an outage.
	// Required on the dialing side when Reconnect is enabled; the
	// accepting side leaves it nil and waits for the peer to re-dial.
	Redial func() (Conn, error)
	// Batch has no effect; kept until a `benchmark` PR stops naming it (see
	// BatchConfig). Every link coalesces the frames that arrive while its
	// previous write is in flight (writer.go).
	Batch BatchConfig
	// PiggybackAcks has no effect; kept until a `benchmark` PR stops naming
	// it. Every SPI ack leaves as an ACK frame in the writer's next pass,
	// merged per edge and written with whatever DATA is staged beside it.
	PiggybackAcks bool
	// Sessions asserts that this link multiplexes sessions: NewLink and
	// AcceptConn refuse to build it unless the handler is a
	// SessionHandler. It changes nothing on the wire — any link whose
	// handler is a SessionHandler sends and receives session-tagged frames.
	Sessions bool
	// Heartbeat enables active liveness probing: a per-link prober sends
	// a PING whenever no frame has been heard from the peer for one
	// Heartbeat interval. Any inbound frame refreshes the last-heard
	// mark, so a busy link never pays for probes; PONG echoes carry an
	// RTT sample. Zero disables probing. Local policy: every peer answers
	// PING, so one side may probe a peer that does not probe back.
	Heartbeat time.Duration
	// PeerTimeout declares the connection dead after this much inbound
	// silence despite probing — the half-open / black-holed failure mode a
	// read deadline alone cannot distinguish from an idle-but-alive peer.
	// The dead connection is routed into the normal failure path: RESUME
	// recovery when Reconnect allows it, link failure (and the caller's
	// DegradedError) otherwise. Default 4× Heartbeat; only meaningful when
	// Heartbeat is set.
	PeerTimeout time.Duration
	// Blocked declares that this link's DATA frames carry packed
	// multi-token slabs on every edge (vectorized execution).
	// Slab framing changes the payload layout, so the handshake fails
	// unless both sides run the same mode. The edge manifest's
	// Bytes/Capacity fields additionally pin the blocking factor itself —
	// peers blocked differently disagree on slab bounds and are rejected
	// by verifyManifest.
	Blocked bool
	// ResyncEdges is the node-wide ack-suppression set from the §4
	// resynchronization verdict: UBS edge IDs whose acknowledgements are
	// transitively covered by other synchronization paths. The IDs this
	// link carries become an attribute of their manifest entries, so the
	// handshake fails unless the peer suppresses exactly the same edges
	// of this link; IDs it does not carry are ignored. The link sends
	// what it is given: the SPI layer decides which acks exist.
	ResyncEdges []uint16
	// Obs, when non-nil, exports this link's traffic counters through the
	// metrics registry (labeled by peer node) and records its session
	// lifecycle events into the trace ring. Nil keeps the counters
	// link-local (Stats still works) and disables tracing.
	Obs *obs.Observer
}

const (
	// handshakeTimeout bounds the HELLO or RESUME exchange.
	handshakeTimeout = 5 * time.Second
	// resendLimit and resendBytes bound the resend buffer in frames and in
	// wire bytes: numbered frames are retained until covered by the peer's
	// cumulative ack, and senders block while the buffer is full (fullLocked).
	resendLimit = 256
	resendBytes = 1 << 20
	// ackInterval and ackBytes are the cumulative-ack thresholds: a receiver
	// acks once a quarter of the peer's resend budget has arrived, in frames
	// or in bytes, so the peer trims long before its senders would stall.
	ackInterval = resendLimit / 4
	ackBytes    = resendBytes / 4
)

// closeTimeout bounds how long Close waits — first for a pending
// reconnection to replay unacknowledged frames, then for the peer's GOODBYE
// — before forcing the connection shut. A link takes it when it starts.
var closeTimeout = 5 * time.Second

func (c *LinkConfig) peerTimeout() time.Duration {
	if c.PeerTimeout > 0 {
		return c.PeerTimeout
	}
	return 4 * c.Heartbeat
}

// LinkStats counts one link's wire traffic (frame bodies plus the
// frame headers).
type LinkStats struct {
	FramesSent, FramesReceived int64
	BytesSent, BytesReceived   int64
	DataSent, DataReceived     int64
	AcksSent, AcksReceived     int64
	FinsSent, FinsReceived     int64
	// Resumes counts successful RESUME handshakes, Retransmits the
	// frames replayed by them, DuplicatesDropped the inbound frames
	// discarded by the sequence filter.
	Resumes, Retransmits, DuplicatesDropped int64
	// Writes counts carrier Write calls, so FramesSent / Writes is the
	// coalescing the link's load produced; BatchFlushes counts the writes
	// that carried more than one frame.
	BatchFlushes, Writes int64
	// PingsSent counts liveness probes sent on idle links, PongsReceived
	// the echoes that came back (each one an RTT sample), and
	// HeartbeatTimeouts the connections declared dead for inbound silence.
	PingsSent, PongsReceived, HeartbeatTimeouts int64
}

// Link connection states (the lifecycle table is DESIGN.md §6). A link
// starts up. A lost connection ends it quietly (failed) once the
// conversation is over — see overLocked — and is otherwise an outage: down
// with Reconnect, until a RESUME brings it back up or recovery gives up
// (failed); failed at once without. Close or Abort ends it in closed. The
// two end states are last so `state >= stateFailed` reads "ended".
const (
	stateUp = iota
	stateDown
	stateFailed
	stateClosed
)

// linkObs is one link's resolved observability handles. The counters and
// gauge are always allocated — they are the link's only traffic
// bookkeeping (Stats reads them) and cost one atomic op whether or not a
// registry exports them. Only the tracer is nil without an observer; its
// methods are nil-safe, so record sites call unconditionally.
type linkObs struct {
	tr  *obs.Tracer
	pid int
	// sessTid separates session-lifecycle events (reconnect, resume,
	// link-down) from per-edge message rows in the Chrome view.
	sessTid int

	framesSent, framesRecv *obs.Counter
	bytesSent, bytesRecv   *obs.Counter
	dataSent, dataRecv     *obs.Counter
	acksSent, acksRecv     *obs.Counter
	finsSent, finsRecv     *obs.Counter
	resumes, retransmits   *obs.Counter
	dups, reconnects       *obs.Counter
	sendStalls             *obs.Counter
	batchFlushes, writes   *obs.Counter
	resendDepth            *obs.Gauge
	resendSize             *obs.Gauge
	pingsSent, pongsRecv   *obs.Counter
	hbTimeouts             *obs.Counter
	// rtt is the PONG round-trip histogram in microseconds. Unlike the
	// counters it stays nil without a registry: a zero-value Histogram has
	// no buckets to observe into, and Stats has the lastRTT atomic anyway.
	rtt *obs.Histogram
}

// sessionRowBase offsets session-event trace rows above edge IDs.
const sessionRowBase = 900

func newLinkObs(o *obs.Observer, peer int) linkObs {
	if o == nil {
		// Unregistered standalone counters: same single atomic op per
		// record as registered ones, just not exported anywhere.
		return linkObs{
			framesSent: &obs.Counter{}, framesRecv: &obs.Counter{},
			bytesSent: &obs.Counter{}, bytesRecv: &obs.Counter{},
			dataSent: &obs.Counter{}, dataRecv: &obs.Counter{},
			acksSent: &obs.Counter{}, acksRecv: &obs.Counter{},
			finsSent: &obs.Counter{}, finsRecv: &obs.Counter{},
			resumes: &obs.Counter{}, retransmits: &obs.Counter{},
			dups: &obs.Counter{}, reconnects: &obs.Counter{},
			sendStalls:   &obs.Counter{},
			batchFlushes: &obs.Counter{}, writes: &obs.Counter{},
			resendDepth: &obs.Gauge{}, resendSize: &obs.Gauge{},
			pingsSent: &obs.Counter{}, pongsRecv: &obs.Counter{},
			hbTimeouts: &obs.Counter{},
		}
	}
	pl := obs.L("peer", strconv.Itoa(peer))
	return linkObs{
		tr:           o.Tracer(),
		pid:          o.Pid(),
		sessTid:      sessionRowBase + peer,
		framesSent:   o.Counter("transport_link_frames_sent_total", "frames written to the peer", pl),
		framesRecv:   o.Counter("transport_link_frames_received_total", "frames read from the peer", pl),
		bytesSent:    o.Counter("transport_link_bytes_sent_total", "wire bytes written (headers included)", pl),
		bytesRecv:    o.Counter("transport_link_bytes_received_total", "wire bytes read (headers included)", pl),
		dataSent:     o.Counter("transport_link_data_sent_total", "DATA frames sent", pl),
		dataRecv:     o.Counter("transport_link_data_received_total", "DATA frames received", pl),
		acksSent:     o.Counter("transport_link_acks_sent_total", "ACK frames sent", pl),
		acksRecv:     o.Counter("transport_link_acks_received_total", "ACK frames received", pl),
		finsSent:     o.Counter("transport_link_fins_sent_total", "FIN frames sent", pl),
		finsRecv:     o.Counter("transport_link_fins_received_total", "FIN frames received", pl),
		resumes:      o.Counter("transport_link_resumes_total", "successful RESUME handshakes", pl),
		retransmits:  o.Counter("transport_link_retransmits_total", "frames replayed by RESUME recovery", pl),
		dups:         o.Counter("transport_link_duplicates_dropped_total", "inbound frames discarded by the sequence filter", pl),
		reconnects:   o.Counter("transport_link_reconnect_attempts_total", "re-dial attempts during outages", pl),
		sendStalls:   o.Counter("transport_link_send_stalls_total", "sends that blocked on a down link or full resend buffer", pl),
		batchFlushes: o.Counter("transport_link_batch_flushes_total", "carrier writes that carried more than one frame", pl),
		writes:       o.Counter("transport_link_writes_total", "carrier Write calls (frames_sent / writes = frames per write)", pl),
		resendDepth:  o.Gauge("transport_link_resend_depth", "unacknowledged frames held for replay", pl),
		resendSize:   o.Gauge("transport_link_resend_bytes", "wire bytes of the unacknowledged frames held for replay", pl),
		pingsSent:    o.Counter("transport_link_pings_sent_total", "liveness probes sent on idle links", pl),
		pongsRecv:    o.Counter("transport_link_pongs_received_total", "probe echoes received (RTT samples)", pl),
		hbTimeouts:   o.Counter("transport_link_heartbeat_timeouts_total", "connections declared dead for inbound silence", pl),
		rtt:          o.Histogram("transport_link_rtt_us", "PING/PONG round-trip time in microseconds.", nil, pl),
	}
}

type resumeOffer struct {
	conn    Conn
	recvSeq uint64 // peer's receive high-water mark from its RESUME
}

// Link multiplexes all SPI edges between two PE groups over one Conn.
// DATA, ACK, and FIN frames carry per-link monotonic sequence numbers and
// stay in a bounded resend buffer until the peer's cumulative transport
// ack covers them; when the connection dies and LinkConfig.Reconnect
// allows it, a re-dialed connection replays exactly the unacknowledged
// suffix via the RESUME handshake. One writer goroutine per link sends
// outbound frames (writer.go) and one reader goroutine per connection
// generation dispatches inbound ones.
//
// Lock order: wmu before mu, never the reverse.
type Link struct {
	cfg    LinkConfig
	h      Handler
	closeT time.Duration // closeTimeout when the link started
	peer   int
	token  uint64
	raddr  string
	dialer bool
	out    map[uint16]EdgeDecl // edges the local side sends data on
	in     map[uint16]EdgeDecl // edges the local side receives data on

	sh SessionHandler // h's session extension, when it has one
	ch CtrlHandler    // h's control-plane extension, when it has one

	// Liveness tracking, lock-free: lastHeard is the UnixNano of the last
	// tick at which the pinger saw the inbound frame counter move (plus
	// the RESUME handshake, which stamps it directly), lastRTT the most
	// recent PONG round-trip in microseconds. The reader itself never
	// touches the clock for liveness — the frame counter it already
	// maintains is the proof of life.
	lastHeard atomic.Int64
	lastRTT   atomic.Int64

	wmu   sync.Mutex // held by whoever is writing to the carrier (writer.go)
	spare []byte     // the write buffer the stage is not using; guarded by wmu

	mu         sync.Mutex
	conn       Conn
	state      int
	gen        int           // bumped each time a connection is lost
	graceful   bool          // local Close or Abort has begun: the shutdown is deliberate
	closeSeq   uint64        // sendSeq when Close began (0 for Abort): what it still owes the peer
	closeErr   error         // what Close returns; written inside closeOnce
	byeSeq     uint64        // our GOODBYE's sequence number (0: not sent)
	peerClosed bool          // peer sent GOODBYE
	failErr    error         // why sends are refused, once the link has ended (ErrLinkClosed wrapped)
	sendSeq    uint64        // last sequence number assigned to an outbound frame
	recvSeq    uint64        // last in-order sequence number received
	cumAcked   uint64        // highest recvSeq we have cumulatively acked to the peer
	peerAcked  uint64        // highest cumulative ack received from the peer
	unacked    []*[]byte     // numbered frames, sealed in buffers from the free list, until the peer acks them
	unackedLen int           // wire bytes of the frames in unacked
	recvBytes  int           // wire bytes of the numbered frames received since cumAcked was set
	stage      []byte        // encoded frames awaiting the writer's next pass
	staged     int           // frames in stage
	ackNow     bool          // the next pass sends the owed cumulative ack
	inline     *[]byte       // the frame its sender is writing from the resend buffer right now (nil: none, or trimmed meanwhile)
	changed    chan struct{} // closed+replaced on a state/buffer change once watched
	watched    bool          // a waiter took changed: the next change closes it
	readerDone chan struct{} // current generation's reader exit

	pendingAcks  map[ackKey]uint32 // SPI acks awaiting the writer's next pass
	pendingOrder []ackKey          // FIFO of (tag, edge) pairs with pending acks

	closedCh   chan struct{} // closed once when Close/Abort begins
	resumeCh   chan resumeOffer
	wake       chan struct{} // one token: the writer has something to write
	writerDone chan struct{} // the writer's exit

	obs linkObs

	notifyOnce sync.Once
	closeOnce  sync.Once
}

func newToken() (uint64, error) {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// NewLink runs the dialer side of the handshake on conn — send hello
// (carrying a fresh session token), read the peer's echo, verify the
// manifests — and starts the reader. On any handshake failure the
// connection is closed.
func NewLink(conn Conn, cfg LinkConfig, h Handler) (*Link, error) {
	token, err := newToken()
	if err == nil {
		err = cfg.checkHandler(h)
	}
	if err != nil {
		return refuse(conn, "handshake", err)
	}
	cfg.Edges = cfg.manifest(cfg.Edges)
	deadline := time.Now().Add(handshakeTimeout)
	conn.SetWriteDeadline(deadline)
	if err := writeFrame(conn, frameHello, 0, encodeHello(uint16(cfg.Node), token, cfg.Edges, cfg.Blocked)); err != nil {
		return refuse(conn, "handshake", err)
	}
	conn.SetReadDeadline(deadline)
	typ, _, body, err := readFrame(conn)
	if err == nil && typ != frameHello {
		err = fmt.Errorf("first frame has type %d, want hello", typ)
	}
	if err != nil {
		return refuse(conn, "handshake", err)
	}
	peer, peerToken, peerEdges, peerBlocked, err := decodeHello(body)
	if err == nil && peerToken != token {
		err = fmt.Errorf("peer echoed session token %#x, want %#x", peerToken, token)
	}
	if err == nil {
		err = cfg.agree(peerEdges, peerBlocked)
	}
	if err != nil {
		return refuse(conn, "handshake", err)
	}
	return startLink(conn, cfg, h, int(peer), token, true), nil
}

// refuse closes a connection whose handshake (op "handshake") or RESUME
// routing (op "resume") failed and wraps the cause. Only a timeout is
// transient; everything else is a disagreement a retry would repeat.
func refuse(conn Conn, op string, err error) (*Link, error) {
	conn.Close()
	return nil, &Error{Op: op, Addr: conn.RemoteAddr(), Transient: isTimeout(err), Err: err}
}

// checkHandler enforces what Sessions asserts about the handler.
func (c *LinkConfig) checkHandler(h Handler) error {
	if _, ok := h.(SessionHandler); c.Sessions && !ok {
		return fmt.Errorf("LinkConfig.Sessions is set but the handler (%T) is not a SessionHandler", h)
	}
	return nil
}

// manifest returns edges as HELLO declares them: with the ack-suppressed
// attribute set on the ones ResyncEdges names. ResyncEdges is node-wide —
// a node's links each carry their own part of it, possibly none — so IDs
// outside this link's manifest are dropped here, and what the two ends
// compare is the per-link set.
func (c *LinkConfig) manifest(edges []EdgeDecl) []EdgeDecl {
	if len(c.ResyncEdges) == 0 {
		return edges
	}
	marked := append([]EdgeDecl(nil), edges...) // the caller's slice is not ours to mark
	for i := range marked {
		for _, id := range c.ResyncEdges {
			marked[i].noAck = marked[i].noAck || id == marked[i].ID
		}
	}
	return marked
}

// agree is the whole handshake check: the peer's HELLO (already of this
// protocol version) must declare the mirror image of the local manifest
// and the same DATA payload layout. A blocked link cannot interoperate
// with a scalar peer in either direction, so it is refused with a
// configuration hint instead of corrupting tokens.
func (c *LinkConfig) agree(peerEdges []EdgeDecl, peerBlocked bool) error {
	if err := verifyManifest(c.Edges, peerEdges); err != nil {
		return err
	}
	if c.Blocked == peerBlocked {
		return nil
	}
	if c.Blocked {
		return fmt.Errorf("this side runs blocked (vectorized) edges but the peer does not; run both sides with the same -block")
	}
	return fmt.Errorf("peer runs blocked (vectorized) edges but this side does not; run both sides with the same -block")
}

// AcceptLink runs the listener side of the handshake: read the dialer's
// hello first (learning which peer connected), obtain the local manifest
// and handler for that peer from lookup, then answer with the local hello.
func AcceptLink(conn Conn, cfg LinkConfig, lookup func(peer int) ([]EdgeDecl, Handler, error)) (*Link, error) {
	return AcceptConn(conn, cfg, lookup, nil)
}

// AcceptConn reads the first frame on an inbound connection and routes it.
// A HELLO runs the full listener-side handshake and returns a new link. A
// RESUME hands the connection to the parked link returned by resume(peer,
// token) and returns (nil, nil); the resumed link replays its
// unacknowledged frames internally. With resume == nil, RESUME frames are
// rejected.
func AcceptConn(conn Conn, cfg LinkConfig, lookup func(peer int) ([]EdgeDecl, Handler, error), resume func(peer int, token uint64) *Link) (*Link, error) {
	deadline := time.Now().Add(handshakeTimeout)
	conn.SetReadDeadline(deadline)
	typ, _, body, err := readFrame(conn)
	if err != nil {
		return refuse(conn, "handshake", err)
	}
	switch typ {
	case frameResume:
		peer, token, recvSeq, err := decodeResume(body)
		if err != nil {
			return refuse(conn, "resume", err)
		}
		var l *Link
		if resume != nil {
			l = resume(int(peer), token)
		}
		if l == nil {
			return refuse(conn, "resume", fmt.Errorf("no resumable link for node %d", peer))
		}
		return nil, l.adoptConn(conn, recvSeq)
	case frameHello:
		peer, token, peerEdges, peerBlocked, err := decodeHello(body)
		if err != nil {
			return refuse(conn, "handshake", err)
		}
		edges, h, err := lookup(int(peer))
		if err == nil {
			err = cfg.checkHandler(h)
		}
		if err == nil {
			cfg.Edges = cfg.manifest(edges)
			err = cfg.agree(peerEdges, peerBlocked)
		}
		if err != nil {
			return refuse(conn, "handshake", err)
		}
		conn.SetWriteDeadline(deadline)
		if err := writeFrame(conn, frameHello, 0, encodeHello(uint16(cfg.Node), token, cfg.Edges, cfg.Blocked)); err != nil {
			return refuse(conn, "handshake", err)
		}
		return startLink(conn, cfg, h, int(peer), token, false), nil
	default:
		return refuse(conn, "handshake", fmt.Errorf("first frame has type %d, want hello or resume", typ))
	}
}

// startLink builds the link the handshake agreed on; cfg.Edges is the
// verified manifest.
func startLink(conn Conn, cfg LinkConfig, h Handler, peer int, token uint64, dialer bool) *Link {
	conn.SetReadDeadline(time.Time{})
	conn.SetWriteDeadline(time.Time{})
	cfg.Reconnect = cfg.Reconnect.withDefaults()
	l := &Link{
		cfg:        cfg,
		h:          h,
		closeT:     closeTimeout,
		peer:       peer,
		token:      token,
		raddr:      conn.RemoteAddr(),
		dialer:     dialer,
		out:        map[uint16]EdgeDecl{},
		in:         map[uint16]EdgeDecl{},
		conn:       conn,
		state:      stateUp,
		changed:    make(chan struct{}),
		readerDone: make(chan struct{}),
		closedCh:   make(chan struct{}),
		resumeCh:   make(chan resumeOffer, 1),
		wake:       make(chan struct{}, 1),
		writerDone: make(chan struct{}),
		obs:        newLinkObs(cfg.Obs, peer),
	}
	// The handler's session and control-plane halves are resolved once
	// here so the read loop dispatches without a per-frame assert.
	l.sh, _ = h.(SessionHandler)
	l.ch, _ = h.(CtrlHandler)
	l.lastHeard.Store(time.Now().UnixNano())
	for _, d := range cfg.Edges {
		if d.Out {
			l.out[d.ID] = d
		} else {
			l.in[d.ID] = d
		}
	}
	go l.writer()
	go l.readLoop(conn, 0, l.readerDone)
	if cfg.Heartbeat > 0 {
		go l.pinger()
	}
	// Publish this link's liveness view into /healthz: keyed by peer, so
	// the newest link to a peer (e.g. after reconnection churn) wins.
	cfg.Obs.SetHealth(fmt.Sprintf("link_node_%d", peer), func() any { return l.Liveness() })
	return l
}

// verifyManifest checks that the two handshake manifests describe the same
// edge set with complementary directions: every edge one side sends, the
// other receives, with identical mode, size bound, protocol, capacity and
// ack suppression.
func verifyManifest(local, peer []EdgeDecl) error {
	if len(local) != len(peer) {
		return fmt.Errorf("manifest mismatch: local %d edges, peer %d", len(local), len(peer))
	}
	byID := make(map[uint16]EdgeDecl, len(peer))
	for _, d := range peer {
		if _, dup := byID[d.ID]; dup {
			return fmt.Errorf("manifest mismatch: peer declares edge %d twice", d.ID)
		}
		byID[d.ID] = d
	}
	ids := make([]int, 0, len(local))
	for _, d := range local {
		ids = append(ids, int(d.ID))
	}
	sort.Ints(ids)
	for _, d := range local {
		p, ok := byID[d.ID]
		if !ok {
			return fmt.Errorf("manifest mismatch: peer missing edge %d (local set %v)", d.ID, ids)
		}
		if p.Out == d.Out {
			return fmt.Errorf("manifest mismatch: edge %d declared %s by both sides",
				d.ID, direction(d.Out))
		}
		if p.Mode != d.Mode || p.Bytes != d.Bytes || p.Protocol != d.Protocol || p.Capacity != d.Capacity {
			return fmt.Errorf("manifest mismatch on edge %d: local {mode %d, %d bytes, proto %d, cap %d}, peer {mode %d, %d bytes, proto %d, cap %d}",
				d.ID, d.Mode, d.Bytes, d.Protocol, d.Capacity, p.Mode, p.Bytes, p.Protocol, p.Capacity)
		}
		if p.noAck != d.noAck {
			does, doesNot := "local", "peer"
			if p.noAck {
				does, doesNot = doesNot, does
			}
			return fmt.Errorf("manifest mismatch on edge %d: %s suppresses acks, %s does not; both sides must compute the resynchronization verdict from the same graph and mapping: run both sides with the same -resync",
				d.ID, does, doesNot)
		}
	}
	return nil
}

func direction(out bool) string {
	if out {
		return "outbound"
	}
	return "inbound"
}

// PeerNode returns the peer identity learned in the handshake.
func (l *Link) PeerNode() int { return l.peer }

// Token returns the session token negotiated in the handshake; the
// accepting side's owner uses it to route RESUME connections back to this
// link (see AcceptConn).
func (l *Link) Token() uint64 { return l.token }

// RemoteAddr reports the peer's address for diagnostics.
func (l *Link) RemoteAddr() string { return l.raddr }

// Stats returns a snapshot of the link's traffic counters.
func (l *Link) Stats() LinkStats {
	return LinkStats{
		FramesSent:        l.obs.framesSent.Value(),
		FramesReceived:    l.obs.framesRecv.Value(),
		BytesSent:         l.obs.bytesSent.Value(),
		BytesReceived:     l.obs.bytesRecv.Value(),
		DataSent:          l.obs.dataSent.Value(),
		DataReceived:      l.obs.dataRecv.Value(),
		AcksSent:          l.obs.acksSent.Value(),
		AcksReceived:      l.obs.acksRecv.Value(),
		FinsSent:          l.obs.finsSent.Value(),
		FinsReceived:      l.obs.finsRecv.Value(),
		Resumes:           l.obs.resumes.Value(),
		Retransmits:       l.obs.retransmits.Value(),
		DuplicatesDropped: l.obs.dups.Value(),
		BatchFlushes:      l.obs.batchFlushes.Value(),
		Writes:            l.obs.writes.Value(),
		PingsSent:         l.obs.pingsSent.Value(),
		PongsReceived:     l.obs.pongsRecv.Value(),
		HeartbeatTimeouts: l.obs.hbTimeouts.Value(),
	}
}

// LinkLiveness is a point-in-time liveness snapshot of one link, shaped
// for /healthz: how long since the peer was last heard from, the most
// recent PONG round trip, and the probe counters.
type LinkLiveness struct {
	Peer              int    `json:"peer"`
	State             string `json:"state"`
	HeartbeatOn       bool   `json:"heartbeat_on"`
	SinceHeardMS      int64  `json:"since_heard_ms"`
	LastRTTMicros     int64  `json:"last_rtt_us"`
	PingsSent         int64  `json:"pings_sent"`
	HeartbeatTimeouts int64  `json:"heartbeat_timeouts"`
}

func stateString(s int) string {
	switch s {
	case stateUp:
		return "up"
	case stateDown:
		return "down"
	case stateClosed:
		return "closed"
	default:
		return "failed"
	}
}

// Liveness snapshots the link's failure-detector state. SinceHeardMS is
// meaningful only while this side probes (the pinger refreshes the mark);
// it still reports time since handshake otherwise.
func (l *Link) Liveness() LinkLiveness {
	l.mu.Lock()
	state := l.state
	l.mu.Unlock()
	return LinkLiveness{
		Peer:              l.peer,
		State:             stateString(state),
		HeartbeatOn:       l.cfg.Heartbeat > 0,
		SinceHeardMS:      (time.Now().UnixNano() - l.lastHeard.Load()) / int64(time.Millisecond),
		LastRTTMicros:     l.lastRTT.Load(),
		PingsSent:         l.obs.pingsSent.Value(),
		HeartbeatTimeouts: l.obs.hbTimeouts.Value(),
	}
}

// pinger is the per-link failure detector, running for the life of a link
// that probes (Heartbeat > 0). Each tick it first folds the reader's frame
// counter into the liveness mark — if any frame arrived since the last
// tick the peer is alive, stamped at tick granularity so the receive hot
// path never touches the clock — then checks how long the peer has been
// silent: past PeerTimeout the connection is declared dead and fed to the
// normal failure path (recovery or link failure), past one Heartbeat
// interval a PING probes the peer — so a busy link never sends a probe,
// and an idle-but-alive one answers with a PONG whose arrival refreshes
// the mark and samples the RTT. The tick-granular stamp means detection
// lags true silence by at most one extra interval: with the default
// timeout of 4 intervals a dead peer is declared within 6 intervals,
// still inside the 2x-PeerTimeout bound. Outages (stateDown) are the
// recovery goroutine's problem, bounded by its own reconnect deadline;
// the pinger just waits them out.
func (l *Link) pinger() {
	interval := l.cfg.Heartbeat
	timeout := l.cfg.peerTimeout()
	t := time.NewTicker(interval)
	defer t.Stop()
	heard := l.obs.framesRecv.Value()
	for {
		select {
		case <-t.C:
		case <-l.closedCh:
			return
		}
		l.mu.Lock()
		state, gen := l.state, l.gen
		l.mu.Unlock()
		if state >= stateFailed {
			return
		}
		if state != stateUp {
			continue
		}
		if n := l.obs.framesRecv.Value(); n != heard {
			heard = n
			l.lastHeard.Store(time.Now().UnixNano())
		}
		silent := time.Duration(time.Now().UnixNano() - l.lastHeard.Load())
		if silent >= timeout {
			l.obs.hbTimeouts.Inc()
			l.obs.tr.Instant("session", "heartbeat-timeout", l.obs.pid, l.obs.sessTid,
				obs.A("silent_ms", int64(silent/time.Millisecond)))
			l.connError(gen, &Error{Op: "liveness", Addr: l.raddr, Transient: true,
				Err: fmt.Errorf("node %d silent for %v, heartbeat timeout %v exceeded", l.peer, silent.Round(time.Millisecond), timeout)})
			continue
		}
		if silent >= interval {
			l.stageProbe(gen, framePing, uint64(time.Now().UnixNano()))
		}
	}
}

// SendData transmits one SPI-encoded message on an outbound edge of the
// link's own run (tag 0): it copies msg into a buffer from the free list
// and sends that (SendBuffer).
func (l *Link) SendData(edge uint16, msg []byte) error {
	b := Buffer(len(msg))
	*b = append(*b, msg...)
	return l.SendBuffer(edge, b)
}

// SendBuffer transmits one SPI-encoded message on an outbound edge of the
// link's own run, built behind the Headroom of a buffer from the free list,
// and takes the buffer: the frame header and tag are written into the
// headroom, the buffer itself is filed, and it is recycled once the peer
// has acknowledged the frame (at once, when the send is refused).
func (l *Link) SendBuffer(edge uint16, buf *[]byte) error { return l.sendData(0, edge, buf) }

// SendAck transmits a UBS acknowledgement for an inbound edge
// of the link's own run. The ack is queued, never written here and never
// blocked: the writer's next pass sends it as a numbered ACK frame, merged
// with every other ack queued for the same tag and edge, held for replay
// like every numbered frame. A handler may therefore ack from the link's
// reader goroutine.
func (l *Link) SendAck(edge uint16, count uint32) error { return l.sendAck(0, edge, count) }

// SendFin marks one edge of the link's own run finished: the peer stops
// expecting DATA (outbound edge) or ACKs (inbound edge) on it.
// Degrading nodes send FINs on every edge touching a dead peer's actors so
// the survivors unblock. Queued acks, of every tag, are materialized ahead
// of it: the peer must not observe a FIN ordered ahead of acks for
// messages it delivered before the FIN.
func (l *Link) SendFin(edge uint16) error { return l.sendFin(0, edge) }

func (l *Link) sendData(tag uint32, edge uint16, buf *[]byte) error {
	err := l.checkTag(tag)
	if _, ok := l.out[edge]; !ok {
		err = l.sendError("edge %d is not outbound on this link", edge)
	}
	if err != nil {
		Recycle(buf)
		return err
	}
	binary.LittleEndian.PutUint32((*buf)[frameHeaderBytes:], tag)
	if err := l.sendFrame(frameData, buf); err != nil {
		return err
	}
	// Counters only on the per-frame path: the SPI layer already traces
	// this message as an edge event, and a second instant per frame is
	// measurable overhead for no new information. The trace ring carries
	// link lifecycle events (down, reconnect, resume, replay).
	l.obs.dataSent.Inc()
	return nil
}

func (l *Link) sendAck(tag uint32, edge uint16, count uint32) error {
	if _, ok := l.in[edge]; !ok {
		return l.sendError("edge %d is not inbound on this link", edge)
	}
	if err := l.checkTag(tag); err != nil {
		return err
	}
	l.mu.Lock()
	if err := l.sendErrLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.queueAckLocked(keyOf(tag, edge), count)
	l.mu.Unlock()
	l.wakeWriter()
	return nil
}

func (l *Link) sendFin(tag uint32, edge uint16) error {
	_, outOK := l.out[edge]
	_, inOK := l.in[edge]
	if !outOK && !inOK {
		return l.sendError("edge %d is not declared on this link", edge)
	}
	if err := l.checkTag(tag); err != nil {
		return err
	}
	var body [finBodyBytes]byte
	putFin(&body, tag, edge)
	if err := l.sendFrame(frameFin, frameOf(body[:], nil)); err != nil {
		return err
	}
	l.obs.finsSent.Inc()
	l.obs.tr.Instant("link", "fin:send", l.obs.pid, int(edge))
	return nil
}

// checkTag refuses a session-tagged send on a link whose handler is not a
// SessionHandler: sending needs what receiving needs, and the peer's
// tagged answers would fail this link's reader.
func (l *Link) checkTag(tag uint32) error {
	if tag != 0 && l.sh == nil {
		return l.sendError("session %d: tagged frames need a link whose handler is a SessionHandler", tag)
	}
	return nil
}

// sendError is the error of a send the link refuses before it is filed.
func (l *Link) sendError(format string, args ...any) error {
	return &Error{Op: "send", Addr: l.raddr, Err: fmt.Errorf(format, args...)}
}

// sendErrLocked reports why a link that has ended refuses a send, nil while
// it can still carry one. Caller holds mu.
func (l *Link) sendErrLocked() error {
	if l.failErr == nil {
		return nil
	}
	return &Error{Op: "send", Addr: l.raddr, Err: l.failErr}
}

// sendFrame sends one numbered frame whose body is built in f behind room
// for the header (frameOf, or a message buffer's Headroom with the tag
// written) and takes the buffer: it files the buffer (fileLocked) and
// stages the frame for the writer — or, for a frame of at least
// inlineWriteBytes, writes it here after whatever was staged before it.
// While the link is down with reconnection pending, or the resend buffer is
// full, it blocks until the state changes; that wait comes before the
// sequence number is assigned, and nothing between the assignment and the
// frame's place in wire order releases mu. A failed write of a staged frame
// reaches the caller on its next send (see writeFailed); with reconnection
// enabled it is no error at all, the RESUME replay delivers the frame.
func (l *Link) sendFrame(typ byte, f *[]byte) error {
	inline := len(*f) >= inlineWriteBytes
	unlock := func() {
		l.mu.Unlock()
		if inline {
			l.wmu.Unlock()
		}
	}
	for {
		if inline {
			l.wmu.Lock()
		}
		l.mu.Lock()
		if err := l.sendErrLocked(); err != nil {
			unlock()
			Recycle(f)
			return err
		}
		if l.state == stateDown || l.fullLocked(len(*f)) {
			ch := l.changed
			l.watched = true
			if l.state == stateUp && l.recvSeq > l.cumAcked {
				// About to sleep until the peer acks: send our own owed
				// cumulative ack, or a symmetrically stalled peer would
				// wait on us exactly as we wait on it.
				l.ackNow = true
				l.wakeWriter()
			}
			unlock()
			l.obs.sendStalls.Inc()
			<-ch
			continue
		}
		if typ == frameFin {
			l.materializeAcksLocked()
		}
		l.fileLocked(typ, f)
		if !inline {
			l.stageLocked(*f)
			l.mu.Unlock()
			l.wakeWriter()
			return nil
		}
		gen, err := l.writePass(f)
		l.wmu.Unlock()
		if err == nil {
			return nil
		}
		werr := l.writeFailed(gen, err)
		if l.cfg.Reconnect.Enabled() {
			return nil // the frame is buffered; recovery will replay it
		}
		return werr
	}
}

// connError reports a dead connection seen on generation gen by its
// reader, the writer or the pinger — the one place a connection error is
// classified. The first report on the live connection loses it
// (loseConnLocked); a stale generation, an outage recovery already owns and
// a failed link ignore it. A link Close tore down hears what Close returns.
func (l *Link) connError(gen int, err error) {
	l.mu.Lock()
	notify, report := l.closeErr, l.state == stateClosed
	if gen == l.gen && l.state == stateUp {
		notify = l.loseConnLocked(err)
		report = notify != nil
	}
	l.mu.Unlock()
	if report {
		l.notifyClose(notify)
	}
}

// loseConnLocked drops the live connection: the link ends quietly if the
// conversation is over, goes down (spawning recovery) with Reconnect, and
// fails otherwise. The caller holds mu; the returned error, if non-nil,
// must be passed to notifyClose after unlocking.
func (l *Link) loseConnLocked(cause error) error {
	l.conn.Close()
	l.gen++
	// What was staged for the dead connection goes with it: every numbered
	// frame in it is in the resend buffer, and the RESUME replay restages
	// them from there.
	l.stage, l.staged, l.ackNow = l.stage[:0], 0, false
	if l.overLocked() {
		l.endLocked(stateFailed, nil) // the handler heard nil with the peer's GOODBYE
		return nil
	}
	l.obs.tr.Instant("session", "link-down", l.obs.pid, l.obs.sessTid, obs.A("gen", int64(l.gen)))
	if l.cfg.Reconnect.Enabled() {
		l.state = stateDown
		l.broadcastLocked()
		go l.recover(l.gen, l.readerDone, cause)
		return nil
	}
	l.endLocked(stateFailed, cause)
	return cause
}

// overLocked reports whether the conversation is over: the peer's GOODBYE
// has arrived and our own has been acknowledged, so neither side has
// anything left to say or to replay. Until then a lost connection is an
// outage like any other, whatever is unacknowledged: a peer that said
// GOODBYE may still need our GOODBYE's ack, and a peer we said GOODBYE to
// may still be producing. Caller holds mu.
func (l *Link) overLocked() bool {
	return l.peerClosed && l.byeSeq != 0 && l.peerAcked >= l.byeSeq
}

// endLocked moves the link to an end state (failed or closed) and fixes
// what every later send reports: ErrLinkClosed naming the peer and the
// first cause the link ended with, nil meaning the peer finished the
// conversation. Caller holds mu.
func (l *Link) endLocked(state int, cause error) {
	if l.failErr == nil {
		if cause == nil {
			l.failErr = fmt.Errorf("%w: node %d closed", ErrLinkClosed, l.peer)
		} else {
			l.failErr = fmt.Errorf("%w: node %d: %v", ErrLinkClosed, l.peer, cause)
		}
	}
	l.state = state
	l.broadcastLocked()
}

// ownsOutageLocked reports whether the recovery of generation gen still
// owns the outage: no other transition (a shutdown, a give-up, a racing
// RESUME) has moved the link on. Caller holds mu.
func (l *Link) ownsOutageLocked(gen int) bool {
	return l.gen == gen && l.state == stateDown
}

func (l *Link) ownsOutage(gen int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ownsOutageLocked(gen)
}

// await blocks until cond, evaluated under mu, holds or the deadline
// passes, and reports cond's last value. Every state, buffer and ack change
// broadcasts on changed, so cond is re-evaluated whenever it can have
// changed.
func (l *Link) await(deadline time.Time, cond func() bool) bool {
	for {
		l.mu.Lock()
		ok := cond()
		ch := l.changed
		l.watched = true
		l.mu.Unlock()
		if ok || !time.Now().Before(deadline) {
			return ok
		}
		t := time.NewTimer(time.Until(deadline))
		select {
		case <-ch:
		case <-t.C:
		}
		t.Stop()
	}
}

// broadcastLocked wakes whoever waits for a change. It replaces the channel
// only once a waiter took it, not on every trim of a stream.
func (l *Link) broadcastLocked() {
	if l.watched {
		close(l.changed)
		l.changed, l.watched = make(chan struct{}), false
	}
}

func (l *Link) notifyClose(err error) {
	l.mu.Lock()
	if l.graceful && l.lostLocked() == 0 {
		// The local side chose to close and the peer has everything it
		// still wanted; whatever the connection did while draining, the
		// shutdown is deliberate, not a failure.
		err = nil
	}
	l.mu.Unlock()
	l.notifyOnce.Do(func() { l.h.HandleLinkClose(err) })
}

// lostLocked counts the frames sent before Close began that the peer has
// not acknowledged and may still want: their senders were told nil when the
// frames were staged, so a link that dies under them must say so. A peer
// that has sent its GOODBYE has finished its run and wants nothing more —
// though the conversation is not over until it has acknowledged our
// GOODBYE too (overLocked) — and an Abort owes nothing. Caller holds mu.
func (l *Link) lostLocked() uint64 {
	if l.peerClosed || l.peerAcked >= l.closeSeq {
		return 0
	}
	return l.closeSeq - l.peerAcked
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

var errResumePending = errors.New("resume already pending")
