package spi

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Protocol selects the buffer-synchronization protocol of an edge.
type Protocol uint8

const (
	// BBS is bounded-buffer synchronization, for edges whose buffer the
	// VTS/IPC analysis bounds (vts.Bounds.Bounded): no acknowledgement
	// crosses between the ends. An in-process sender blocks while the
	// buffer holds Capacity messages; a remote one never waits, and its
	// receiver fails the edge when a message arrives past Capacity.
	BBS Protocol = iota
	// UBS is unbounded-buffer synchronization: the sender never blocks;
	// the receiver acknowledges each consumed message, unless the §4
	// resynchronization verdict suppresses the edge's acknowledgements.
	UBS
)

func (p Protocol) String() string {
	if p == BBS {
		return "SPI_BBS"
	}
	return "SPI_UBS"
}

// ErrClosed is returned by operations on a closed edge.
var ErrClosed = errors.New("spi: edge closed")

// AckMessageBytes is the wire size of one UBS acknowledgement, charged in
// edge statistics and by the platform lowering (Build).
const AckMessageBytes = 4

// EdgeConfig declares one interprocessor edge to the runtime — the work of
// the SPI_init actor.
type EdgeConfig struct {
	// ID is the interprocessor edge identifier carried in every header.
	ID EdgeID
	// Name is the dataflow edge's display name, used for statistics,
	// metrics labels, and trace events. Optional; the decimal ID stands in
	// when empty.
	Name string
	// Mode selects SPI_static or SPI_dynamic framing.
	Mode Mode
	// PayloadBytes is the fixed transfer size for Static mode.
	PayloadBytes int
	// MaxBytes is the b_max packed-token bound for Dynamic mode.
	MaxBytes int
	// Protocol selects BBS or UBS.
	Protocol Protocol
	// Capacity is the BBS buffer size in messages. Ignored for UBS.
	Capacity int
}

func (c *EdgeConfig) validate() error {
	switch c.Mode {
	case Static:
		if c.PayloadBytes <= 0 {
			return fmt.Errorf("spi: edge %d: static edge needs positive PayloadBytes", c.ID)
		}
	case Dynamic:
		if c.MaxBytes <= 0 {
			return fmt.Errorf("spi: edge %d: dynamic edge needs positive MaxBytes (the VTS bound)", c.ID)
		}
	default:
		return fmt.Errorf("spi: edge %d: unknown mode %d", c.ID, c.Mode)
	}
	if c.Protocol == BBS && c.Capacity <= 0 {
		return fmt.Errorf("spi: edge %d: BBS needs positive Capacity", c.ID)
	}
	return nil
}

// EdgeStats counts an edge's traffic.
type EdgeStats struct {
	// Messages is the number of data messages transferred.
	Messages int64
	// PayloadBytes and WireBytes count payload and payload+header bytes.
	PayloadBytes, WireBytes int64
	// Acks counts UBS acknowledgements issued by the receiver.
	Acks int64
	// AckBytes is the wire cost of those acknowledgements
	// (AckMessageBytes each) — the synchronization traffic the
	// resynchronization verdict (ResyncSuppression) removes.
	AckBytes int64
	// AcksPiggybacked is always 0, kept until a `benchmark` PR stops naming
	// it: every acknowledgement that reaches the wire is an ACK frame.
	AcksPiggybacked int64
	// AcksSuppressed counts the acknowledgements the resynchronization
	// verdict removed: the receiver of a suppressed cross-node UBS edge
	// counts one per consumed message here and sends none.
	AcksSuppressed int64
	// CreditWaits counts Send calls that blocked on a full in-process BBS
	// queue before proceeding.
	CreditWaits int64
	// MaxQueued is the largest observed buffer occupancy in messages.
	MaxQueued int
}

// edgeObs bundles one edge's observability handles. The zero value (no
// observer attached to the runtime) disables everything: every handle is
// nil and every nil-receiver method is a no-op.
type edgeObs struct {
	msgs        *obs.Counter
	dataBytes   *obs.Counter
	acks        *obs.Counter
	ackBytes    *obs.Counter
	suppressed  *obs.Counter
	creditWaits *obs.Counter
	queueDepth  *obs.Gauge
	tr          *obs.Tracer
	pid         int
	name        string

	// Precomputed trace event names so the hot paths never concatenate.
	evSend, evRecv, evAck, evStall string
}

// newEdgeObs registers the per-edge metric series. All series share the
// edge label so /metrics groups an edge's traffic together.
func newEdgeObs(o *obs.Observer, cfg EdgeConfig) edgeObs {
	if o == nil {
		return edgeObs{}
	}
	name := cfg.Name
	if name == "" {
		name = strconv.Itoa(int(cfg.ID))
	}
	l := obs.L("edge", name)
	return edgeObs{
		msgs:        o.Counter("spi_edge_messages_total", "Data messages transferred per SPI edge.", l),
		dataBytes:   o.Counter("spi_edge_data_bytes_total", "Wire bytes (payload+header) of data messages per SPI edge.", l),
		acks:        o.Counter("spi_edge_acks_total", "UBS acknowledgements issued per SPI edge.", l),
		ackBytes:    o.Counter("spi_edge_ack_bytes_total", "Wire bytes of acknowledgement traffic per SPI edge.", l),
		suppressed:  o.Counter("spi_edge_acks_suppressed_total", "Acknowledgements the resynchronization verdict removed per SPI edge.", l),
		creditWaits: o.Counter("spi_edge_credit_waits_total", "Send calls that blocked on a full in-process BBS queue per SPI edge.", l),
		queueDepth:  o.Gauge("spi_edge_queue_depth", "Current buffer occupancy in messages per SPI edge.", l),
		tr:          o.Tracer(),
		pid:         o.Pid(),
		name:        name,
		evSend:      "send:" + name,
		evRecv:      "recv:" + name,
		evAck:       "ack:" + name,
		evStall:     "credit-stall:" + name,
	}
}

// msgCache is an executor processor's few message buffers in front of the
// transport's free list (transport.Buffer), its goroutine's alone: its sends
// take what its receives gave back without the list's lock. It trades with
// the list one buffer when dry and half when full, and is small, since a
// slab it holds is one the list cannot hand out. A nil msgCache is the list
// itself.
type msgCache struct {
	n    int
	bufs [4]*[]byte
}

// get returns a buffer with room for an n-byte message behind
// transport.Headroom.
func (c *msgCache) get(n int) *[]byte {
	if c == nil || c.n == 0 || cap(*c.bufs[c.n-1]) < transport.Headroom+n {
		return transport.Buffer(n)
	}
	c.n--
	p := c.bufs[c.n]
	*p = (*p)[:transport.Headroom]
	return p
}

func (c *msgCache) put(p *[]byte) {
	switch {
	case c == nil:
		transport.Recycle(p)
	case p != nil:
		if c.n == len(c.bufs) {
			c.spill(c.n / 2)
		}
		c.bufs[c.n], c.n = p, c.n+1
	}
}

// spill gives all but keep of the cached buffers back to the list.
func (c *msgCache) spill(keep int) {
	transport.Recycle(c.bufs[keep:c.n]...)
	c.n = keep
}

// message is the SPI message a buffer carries behind its headroom.
func message(mb *[]byte) []byte { return (*mb)[transport.Headroom:] }

// edge is the shared state between a Sender and Receiver.
type edge struct {
	cfg EdgeConfig
	obs edgeObs

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*[]byte // message buffers (see message); live entries are queue[qhead:]
	qhead  int       // consumed prefix of queue (see pushLocked/popLocked)
	closed bool
	fault  error // why deliverData failed the edge: Receive returns it at once
	stats  EdgeStats
	// noAck marks a cross-node UBS edge the §4 verdict suppresses. It is
	// set when the deployment opens, before any traffic.
	noAck bool

	// Lock-free mirrors of the queue length, send/ack totals, and the
	// closed flag, maintained at every mutation site under mu. The
	// progress watchdog polls them (watchdog.go) without taking the edge
	// lock, so a stalled run can be diagnosed while actors hold it.
	qlen      atomic.Int64
	sentMsgs  atomic.Int64
	ackedMsgs atomic.Int64
	closedBit atomic.Bool

	// Remote binding (see remote.go): when remoteTx is set the Sender
	// transmits over the link instead of queueing; when remoteRx is set
	// the queue is fed by DeliverData and, where the edge acks (acks),
	// every consume acks the peer.
	remoteTx MessageLink
	remoteRx MessageLink
}

// Sender is the SPI_send communication actor of one edge.
type Sender struct{ e *edge }

// Receiver is the SPI_receive communication actor of one edge.
type Receiver struct{ e *edge }

// Runtime hosts the software implementation of an SPI system: a set of
// edges connecting dataflow actors that run as goroutines. It corresponds
// to the original software SPI library; the HDL realization is modeled by
// packages hdl and platform.
type Runtime struct {
	mu    sync.Mutex
	edges []*edge // every initialized edge, in ID order
	obs   *obs.Observer
}

// NewRuntime returns an empty runtime.
func NewRuntime() *Runtime {
	return &Runtime{}
}

// SetObserver attaches metrics and tracing to the runtime. Edges
// initialized after the call record per-edge counters and emit trace
// events; call it before Init. A nil observer leaves the runtime
// uninstrumented (the default).
func (r *Runtime) SetObserver(o *obs.Observer) {
	r.mu.Lock()
	r.obs = o
	r.mu.Unlock()
}

// Init declares an edge and returns its communication actor pair — the
// SPI_init operation. Each edge ID may be initialized once.
func (r *Runtime) Init(cfg EdgeConfig) (*Sender, *Receiver, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, dup := search(r.edges, cfg.ID)
	if dup {
		return nil, nil, fmt.Errorf("spi: edge %d already initialized", cfg.ID)
	}
	e := &edge{cfg: cfg, obs: newEdgeObs(r.obs, cfg)}
	e.cond = sync.NewCond(&e.mu)
	r.edges = slices.Insert(r.edges, i, e)
	return &Sender{e: e}, &Receiver{e: e}, nil
}

// Stats returns a snapshot of an edge's statistics.
func (r *Runtime) Stats(id EdgeID) (EdgeStats, bool) {
	e := r.edge(id)
	if e == nil {
		return EdgeStats{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats, true
}

// search finds where edge id is, or would be inserted, in edges (ID order).
func search(edges []*edge, id EdgeID) (int, bool) {
	return slices.BinarySearchFunc(edges, id, func(e *edge, id EdgeID) int { return cmp.Compare(e.cfg.ID, id) })
}

// find looks edge id up in edges (ID order), nil when it is not there.
func find(edges []*edge, id EdgeID) *edge {
	if i, ok := search(edges, id); ok {
		return edges[i]
	}
	return nil
}

// edge looks an edge up by ID, nil when it was never initialized.
func (r *Runtime) edge(id EdgeID) *edge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return find(r.edges, id)
}

// eachEdge visits the runtime's edges in ID order, holding r.mu.
func (r *Runtime) eachEdge(visit func(e *edge)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.edges {
		visit(e)
	}
}

// close marks the edge closed and wakes everything blocked on it (nil: none).
func (e *edge) close() {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.closed = true
	e.closedBit.Store(true)
	e.cond.Broadcast()
	e.mu.Unlock()
}

// EdgeTraffic is one edge's statistics with its identity attached, as
// reported by AllStats.
type EdgeTraffic struct {
	ID       EdgeID
	Name     string
	Protocol Protocol
	Stats    EdgeStats
}

// AllStats snapshots every edge's statistics, sorted by edge ID.
func (r *Runtime) AllStats() []EdgeTraffic {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EdgeTraffic, 0, len(r.edges))
	for _, e := range r.edges {
		e.mu.Lock()
		out = append(out, EdgeTraffic{ID: e.cfg.ID, Name: e.displayName(), Protocol: e.cfg.Protocol, Stats: e.stats})
		e.mu.Unlock()
	}
	return out
}

func (e *edge) displayName() string {
	if e.cfg.Name == "" {
		return strconv.Itoa(int(e.cfg.ID))
	}
	return e.cfg.Name
}

// CloseAll closes every edge in the runtime, releasing any goroutine
// blocked in Send or Receive with ErrClosed. Used for failure propagation:
// when one processor of a distributed execution dies, its peers must not
// wait forever.
func (r *Runtime) CloseAll() {
	r.eachEdge((*edge).close)
}

// TotalStats sums statistics across all edges.
func (r *Runtime) TotalStats() EdgeStats {
	var t EdgeStats
	r.eachEdge(func(e *edge) {
		e.mu.Lock()
		t.Messages += e.stats.Messages
		t.PayloadBytes += e.stats.PayloadBytes
		t.WireBytes += e.stats.WireBytes
		t.Acks += e.stats.Acks
		t.AckBytes += e.stats.AckBytes
		t.AcksSuppressed += e.stats.AcksSuppressed
		t.CreditWaits += e.stats.CreditWaits
		if e.stats.MaxQueued > t.MaxQueued {
			t.MaxQueued = e.stats.MaxQueued
		}
		e.mu.Unlock()
	})
	return t
}

// qdepthLocked is the number of undelivered messages. Caller holds e.mu.
func (e *edge) qdepthLocked() int { return len(e.queue) - e.qhead }

// pushLocked appends one message to the receive queue and returns the new
// depth. The queue is a sliding window over a reused backing array: pops
// advance qhead instead of reslicing from the front, so the array is
// recycled when the queue drains (or compacted here when the consumed
// prefix blocks an in-place append) and a steady-state send/receive loop
// allocates nothing. Caller holds e.mu.
func (e *edge) pushLocked(q *[]byte) int {
	if e.qhead > 0 && len(e.queue) == cap(e.queue) {
		n := copy(e.queue, e.queue[e.qhead:])
		for i := n; i < len(e.queue); i++ {
			e.queue[i] = nil
		}
		e.queue = e.queue[:n]
		e.qhead = 0
	}
	e.queue = append(e.queue, q)
	e.qlen.Add(1)
	return e.qdepthLocked()
}

// popLocked removes and returns the oldest message; the vacated slot is
// zeroed so the backing array does not pin pooled buffers. Caller holds
// e.mu and has checked the queue is non-empty.
func (e *edge) popLocked() *[]byte {
	q := e.queue[e.qhead]
	e.queue[e.qhead] = nil
	e.qhead++
	if e.qhead == len(e.queue) {
		e.queue = e.queue[:0]
		e.qhead = 0
	}
	e.qlen.Add(-1)
	return q
}

// checkPayload validates a payload against the edge's mode: Static
// payloads must have exactly the configured size, Dynamic ones must not
// exceed the b_max bound.
func (e *edge) checkPayload(payload []byte) error {
	switch e.cfg.Mode {
	case Static:
		if len(payload) != e.cfg.PayloadBytes {
			return fmt.Errorf("spi: edge %d: static payload %d bytes, want %d",
				e.cfg.ID, len(payload), e.cfg.PayloadBytes)
		}
	case Dynamic:
		if len(payload) > e.cfg.MaxBytes {
			return fmt.Errorf("spi: edge %d: dynamic payload %d bytes exceeds bound %d",
				e.cfg.ID, len(payload), e.cfg.MaxBytes)
		}
	}
	return nil
}

// acks reports whether a consumed message sends an acknowledgement: on a
// UBS edge the verdict does not suppress. A BBS edge never does — the
// analysis bounds its buffer.
func (e *edge) acks() bool { return e.cfg.Protocol == UBS && !e.noAck }

// bbsFullLocked reports whether an in-process BBS sender must wait for the
// receiver to consume. Caller holds e.mu.
func (e *edge) bbsFullLocked() bool {
	return e.cfg.Protocol == BBS && !e.closed && e.qdepthLocked() >= e.cfg.Capacity
}

// waitCreditLocked blocks while the in-process BBS queue is full, counting
// the stall once per call. Caller holds e.mu.
func (e *edge) waitCreditLocked() {
	if !e.bbsFullLocked() {
		return
	}
	e.stats.CreditWaits++
	e.obs.creditWaits.Inc()
	start := e.obs.tr.Now()
	for e.bbsFullLocked() {
		e.cond.Wait()
	}
	e.obs.tr.Span("edge", e.obs.evStall, e.obs.pid, int(e.cfg.ID), start)
}

// sendRemoteLocked hands one message buffer to the link; it never waits.
// Caller holds e.mu; released on return. The link takes mb: it seals the
// frame in the buffer's headroom, files the buffer in its resend buffer and
// recycles it once the peer has acknowledged the frame. The unacknowledged
// messages are the queue depth where the edge acks; a BBS receiver counts
// its own (deliverData).
func (e *edge) sendRemoteLocked(link MessageLink, payloadLen int, mb *[]byte) error {
	if e.closed {
		e.mu.Unlock()
		transport.Recycle(mb)
		return ErrClosed
	}
	wire := int64(len(message(mb)))
	e.stats.Messages++
	e.sentMsgs.Add(1)
	e.stats.PayloadBytes += int64(payloadLen)
	e.stats.WireBytes += wire
	q := e.outstanding()
	e.stats.MaxQueued = max(e.stats.MaxQueued, int(q))
	e.mu.Unlock()
	e.obs.msgs.Inc()
	e.obs.dataBytes.Add(wire)
	e.obs.queueDepth.Set(q)
	e.obs.tr.Instant("edge", e.obs.evSend, e.obs.pid, int(e.cfg.ID), obs.A("bytes", wire))
	if err := link.SendBuffer(uint16(e.cfg.ID), mb); err != nil {
		return fmt.Errorf("spi: edge %d remote send: %w", e.cfg.ID, err)
	}
	return nil
}

// queueLocalLocked appends one message buffer to the local queue after
// waiting out the BBS capacity. Caller holds e.mu; released on return.
// The queue takes q.
func (e *edge) queueLocalLocked(q *[]byte, payloadLen int) error {
	e.waitCreditLocked()
	if e.closed {
		e.mu.Unlock()
		transport.Recycle(q)
		return ErrClosed
	}
	wire := int64(len(message(q))) // the receiver may recycle q once the lock is released
	depth := e.pushLocked(q)
	if depth > e.stats.MaxQueued {
		e.stats.MaxQueued = depth
	}
	e.stats.Messages++
	e.sentMsgs.Add(1)
	e.stats.PayloadBytes += int64(payloadLen)
	e.stats.WireBytes += wire
	e.cond.Broadcast()
	e.mu.Unlock()
	e.obs.msgs.Inc()
	e.obs.dataBytes.Add(wire)
	e.obs.queueDepth.Set(int64(depth))
	e.obs.tr.Instant("edge", e.obs.evSend, e.obs.pid, int(e.cfg.ID), obs.A("bytes", wire))
	return nil
}

// Send transmits one payload. For Static edges the payload must have
// exactly the configured size; for Dynamic edges it must not exceed
// MaxBytes. Under BBS, Send blocks while the in-process buffer is full;
// a remote-bound Send never blocks on the protocol. Send copies
// the payload; the caller may reuse its slice.
func (s *Sender) Send(payload []byte) error { return s.send(payload, nil) }

// send is Send taking its message buffer from c.
func (s *Sender) send(payload []byte, c *msgCache) error {
	e := s.e
	if err := e.checkPayload(payload); err != nil {
		return err
	}
	mb := c.get(HeaderBytes(e.cfg.Mode) + len(payload))
	*mb = AppendMessage(*mb, e.cfg.Mode, e.cfg.ID, payload)
	return s.sendBuffer(mb, len(payload))
}

// commit sends the slab a blocked edge slot packed in place (edgeSlot.pack),
// bounded by SlabBound, on its SPI_dynamic edge: it fills in the header
// reserved in front of the slab, and the message goes out in the buffer it
// was packed in.
func (s *Sender) commit(mb *[]byte) error {
	msg := message(mb)
	n := len(msg) - DynamicHeaderBytes
	binary.LittleEndian.PutUint16(msg, uint16(s.e.cfg.ID))
	binary.LittleEndian.PutUint32(msg[2:], uint32(n))
	return s.sendBuffer(mb, n)
}

// sendBuffer sends the message mb carries and hands the buffer on: to the
// local queue, or to the link.
func (s *Sender) sendBuffer(mb *[]byte, payloadLen int) error {
	e := s.e
	e.mu.Lock()
	if link := e.remoteTx; link != nil {
		return e.sendRemoteLocked(link, payloadLen, mb)
	}
	return e.queueLocalLocked(mb, payloadLen)
}

// SendBatch transmits payloads in order, all of them validated before any
// moves — how an edge's delay tokens are preloaded (dist.go). Each is sent
// as Send sends it, in-process BBS waits included; on a remote edge they reach
// the link back to back, so its writer sends the burst in a few large
// writes.
func (s *Sender) SendBatch(payloads [][]byte) error {
	for _, p := range payloads {
		if err := s.e.checkPayload(p); err != nil {
			return err
		}
	}
	var c msgCache
	defer c.spill(0)
	for _, p := range payloads {
		if err := s.send(p, &c); err != nil {
			return err
		}
	}
	return nil
}

// Close marks the edge closed. Blocked senders and receivers return
// ErrClosed; queued messages are discarded.
func (s *Sender) Close() { s.e.close() }

// decodePayload validates one dequeued message and returns its payload, a
// view into msg.
func (e *edge) decodePayload(msg []byte) ([]byte, error) {
	var gotID EdgeID
	var payload []byte
	var err error
	if e.cfg.Mode == Static {
		gotID, payload, err = DecodeStatic(msg, e.cfg.PayloadBytes)
	} else {
		gotID, payload, err = DecodeDynamic(msg, e.cfg.MaxBytes)
	}
	if err == nil && gotID != e.cfg.ID {
		err = fmt.Errorf("spi: edge %d received message for edge %d", e.cfg.ID, gotID)
	}
	return payload, err
}

// Receive blocks for the next message, decodes it, and returns the payload.
// Under UBS the receiver issues an acknowledgement (counted in stats) after
// consuming, unless the edge's acknowledgements are suppressed. On a remote
// BBS edge that a message overran, it returns the error naming the edge and
// its bound. The returned slice is owned by the caller.
func (rc *Receiver) Receive() ([]byte, error) {
	return rc.ReceiveInto(nil)
}

// ReceiveInto is Receive with a caller-supplied buffer: the payload is
// copied out of the message, appended to buf[:0] (growing it as needed),
// and the message buffer recycled, so a steady-state receive loop that
// feeds each payload back in performs zero allocations. A nil buf behaves
// exactly like Receive. The executor receives by view instead.
func (rc *Receiver) ReceiveInto(buf []byte) ([]byte, error) {
	payload, mb, err := rc.receive()
	if err != nil {
		return nil, err
	}
	if buf == nil && len(payload) == 0 {
		buf = []byte{}
	}
	buf = append(buf[:0], payload...)
	transport.Recycle(mb)
	return buf, nil
}

// receive blocks for the next message and returns its payload, a view into
// the buffer mb it arrived in: the caller owns mb, and the view is valid
// until the caller gives mb back to the free list.
func (rc *Receiver) receive() (payload []byte, mb *[]byte, err error) {
	e := rc.e
	e.mu.Lock()
	for e.qdepthLocked() == 0 && !e.closed {
		e.cond.Wait()
	}
	if e.fault != nil || e.qdepthLocked() == 0 {
		err := cmp.Or(e.fault, ErrClosed)
		e.mu.Unlock()
		return nil, nil, err
	}
	q := e.popLocked()
	depth := e.qdepthLocked()
	var link MessageLink
	acked := e.acks()
	switch {
	case acked:
		e.stats.Acks++
		e.stats.AckBytes += AckMessageBytes
		if link = e.remoteRx; link == nil {
			e.ackedMsgs.Add(1)
		}
	case e.noAck:
		e.stats.AcksSuppressed++
		e.obs.suppressed.Inc()
	}
	e.cond.Broadcast() // wake an in-process BBS sender
	id := e.cfg.ID
	e.mu.Unlock()
	e.obs.queueDepth.Set(int64(depth))
	ts := e.obs.tr.Now()
	e.obs.tr.InstantAt(ts, "edge", e.obs.evRecv, e.obs.pid, int(id), obs.A("bytes", int64(len(message(q)))))
	if acked {
		e.obs.acks.Inc()
		e.obs.ackBytes.Add(AckMessageBytes)
		e.obs.tr.InstantAt(ts, "edge", e.obs.evAck, e.obs.pid, int(id))
	}
	if link != nil {
		// An ack gates no sender, and a link that cannot carry it has
		// already died or closed — the transport layer closes the
		// affected edges, so the failure surfaces there. The message
		// itself was delivered; keep it.
		_ = link.SendAck(uint16(id), 1)
	}
	if payload, err = e.decodePayload(message(q)); err != nil {
		transport.Recycle(q)
		return nil, nil, err
	}
	return payload, q, nil
}
