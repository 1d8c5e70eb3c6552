package spi

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Protocol selects the buffer-synchronization protocol of an edge.
type Protocol uint8

const (
	// BBS is bounded-buffer synchronization: the sender blocks when the
	// buffer holds Capacity messages. Use when the VTS/IPC analysis proves
	// a bound (vts.Bounds.Bounded).
	BBS Protocol = iota
	// UBS is unbounded-buffer synchronization: the sender never blocks;
	// the receiver acknowledges each message so the sender can reclaim
	// buffer space consistently.
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

// AckMessageBytes is the wire size charged per acknowledgement in edge
// statistics — the UBS ack / BBS credit payload, matching the default
// SystemSpec.AckBytes of the platform lowering.
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
	// (AckMessageBytes each) — the synchronization traffic OptimizeSync
	// removes on bounded edges.
	AckBytes int64
	// AcksPiggybacked counts how many of those acknowledgements rode
	// outgoing DATA frames as piggybacked entries instead of standalone
	// ACK frames — remote edges on links configured with transport-level
	// piggybacking. Folded in after a distributed run.
	AcksPiggybacked int64
	// AcksSuppressed counts acknowledgements the resynchronization
	// verdict removed from the wire entirely: the receiver issued them,
	// but the link swallowed them on an ack-suppressed edge. Folded
	// in after a distributed run; Acks/AckBytes are reduced by the same
	// amount so they count only traffic that actually reached the wire.
	AcksSuppressed int64
	// CreditWaits counts Send calls that blocked on a full BBS window
	// before proceeding.
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
		acks:        o.Counter("spi_edge_acks_total", "Acknowledgements (UBS acks / BBS credits) issued per SPI edge.", l),
		ackBytes:    o.Counter("spi_edge_ack_bytes_total", "Wire bytes of acknowledgement traffic per SPI edge.", l),
		creditWaits: o.Counter("spi_edge_credit_waits_total", "Send calls that blocked on a full BBS window per SPI edge.", l),
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

// msgPool recycles encoded-message buffers across Send/Receive cycles.
// Boxing through *[]byte keeps Put/Get allocation-free; buffers grow to the
// largest message an edge carries and are reused at that size, so the steady
// state allocates nothing. A fresh one starts small: an unbounded (UBS) queue
// holds one per token its producer is ahead by, which can be its whole run.
var msgPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

func getMsg() *[]byte { return msgPool.Get().(*[]byte) }

func putMsg(p *[]byte) {
	if p != nil {
		msgPool.Put(p)
	}
}

// queued is one encoded message waiting in an edge's receive queue,
// together with the pool box its bytes live in (nil when the bytes are
// not pooled) so the receiver can recycle the buffer after copying the
// payload out.
type queued struct {
	msg []byte
	buf *[]byte
}

// edge is the shared state between a Sender and Receiver.
type edge struct {
	cfg EdgeConfig
	obs edgeObs

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []queued // encoded messages; live entries are queue[qhead:]
	qhead  int      // consumed prefix of queue (see pushLocked/popLocked)
	closed bool
	stats  EdgeStats
	acked  int64 // messages acknowledged by the receiver (UBS, and BBS credits on remote edges)

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
	// the queue is fed by DeliverData and every consume acks the peer.
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
	edges map[EdgeID]*edge
	obs   *obs.Observer
}

// NewRuntime returns an empty runtime.
func NewRuntime() *Runtime {
	return &Runtime{edges: make(map[EdgeID]*edge)}
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
	if _, dup := r.edges[cfg.ID]; dup {
		return nil, nil, fmt.Errorf("spi: edge %d already initialized", cfg.ID)
	}
	e := &edge{cfg: cfg, obs: newEdgeObs(r.obs, cfg)}
	e.cond = sync.NewCond(&e.mu)
	r.edges[cfg.ID] = e
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

// edge looks an edge up by ID, nil when it was never initialized.
func (r *Runtime) edge(id EdgeID) *edge {
	r.mu.Lock()
	e := r.edges[id]
	r.mu.Unlock()
	return e
}

// snapshotEdges returns the runtime's edges in ID order.
func (r *Runtime) snapshotEdges() []*edge {
	r.mu.Lock()
	edges := make([]*edge, 0, len(r.edges))
	for _, e := range r.edges {
		edges = append(edges, e)
	}
	r.mu.Unlock()
	sort.Slice(edges, func(i, j int) bool { return edges[i].cfg.ID < edges[j].cfg.ID })
	return edges
}

// close marks the edge closed and wakes everything blocked on it.
func (e *edge) close() {
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
	edges := r.snapshotEdges()
	out := make([]EdgeTraffic, 0, len(edges))
	for _, e := range edges {
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
	for _, e := range r.snapshotEdges() {
		e.close()
	}
}

// foldLinkAcks folds what a link did with one edge's acks into the edge's
// statistics after the run: piggybacked rode DATA frames; suppressed were
// swallowed on a resync-suppressed edge, and since the receive path counted
// each SendAck optimistically they move out of the wire-traffic columns.
func (r *Runtime) foldLinkAcks(id EdgeID, piggybacked, suppressed int64) {
	e := r.edge(id)
	if e == nil {
		return
	}
	e.mu.Lock()
	e.stats.AcksPiggybacked += piggybacked
	e.stats.Acks -= suppressed
	e.stats.AckBytes -= suppressed * AckMessageBytes
	e.stats.AcksSuppressed += suppressed
	e.mu.Unlock()
}

// TotalStats sums statistics across all edges.
func (r *Runtime) TotalStats() EdgeStats {
	var t EdgeStats
	for _, e := range r.snapshotEdges() {
		e.mu.Lock()
		t.Messages += e.stats.Messages
		t.PayloadBytes += e.stats.PayloadBytes
		t.WireBytes += e.stats.WireBytes
		t.Acks += e.stats.Acks
		t.AckBytes += e.stats.AckBytes
		t.AcksPiggybacked += e.stats.AcksPiggybacked
		t.AcksSuppressed += e.stats.AcksSuppressed
		t.CreditWaits += e.stats.CreditWaits
		if e.stats.MaxQueued > t.MaxQueued {
			t.MaxQueued = e.stats.MaxQueued
		}
		e.mu.Unlock()
	}
	return t
}

// checkPayload validates a payload against the edge's mode: Static
// payloads must have exactly the configured size, Dynamic ones must not
// exceed the b_max bound.
// qdepthLocked is the number of undelivered messages. Caller holds e.mu.
func (e *edge) qdepthLocked() int { return len(e.queue) - e.qhead }

// pushLocked appends one message to the receive queue and returns the new
// depth. The queue is a sliding window over a reused backing array: pops
// advance qhead instead of reslicing from the front, so the array is
// recycled when the queue drains (or compacted here when the consumed
// prefix blocks an in-place append) and a steady-state send/receive loop
// allocates nothing. Caller holds e.mu.
func (e *edge) pushLocked(q queued) int {
	if e.qhead > 0 && len(e.queue) == cap(e.queue) {
		n := copy(e.queue, e.queue[e.qhead:])
		for i := n; i < len(e.queue); i++ {
			e.queue[i] = queued{}
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
func (e *edge) popLocked() queued {
	q := e.queue[e.qhead]
	e.queue[e.qhead] = queued{}
	e.qhead++
	if e.qhead == len(e.queue) {
		e.queue = e.queue[:0]
		e.qhead = 0
	}
	e.qlen.Add(-1)
	return q
}

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

// bbsFullLocked reports whether a BBS sender must wait for credit. The
// remote window is (sent - acked) against Capacity — the shared
// write/read-pointer distance, maintained from the peer's credit
// messages — while the local window is the queue length. Caller holds
// e.mu.
func (e *edge) bbsFullLocked(remote bool) bool {
	if e.cfg.Protocol != BBS || e.closed {
		return false
	}
	if remote {
		return int(e.stats.Messages-e.acked) >= e.cfg.Capacity
	}
	return e.qdepthLocked() >= e.cfg.Capacity
}

// waitCreditLocked blocks while the BBS window is full, counting the
// stall once per call. Caller holds e.mu.
func (e *edge) waitCreditLocked(remote bool) {
	if !e.bbsFullLocked(remote) {
		return
	}
	e.stats.CreditWaits++
	e.obs.creditWaits.Inc()
	start := e.obs.tr.Now()
	for e.bbsFullLocked(remote) {
		e.cond.Wait()
	}
	e.obs.tr.Span("edge", e.obs.evStall, e.obs.pid, int(e.cfg.ID), start)
}

// sendRemoteLocked transmits one encoded message over the link after
// waiting out the BBS window. Caller holds e.mu; released on return. The
// transport copies the message into its frame buffer before SendData
// returns, so the caller may recycle msg afterwards.
func (e *edge) sendRemoteLocked(link MessageLink, payloadLen int, msg []byte) error {
	e.waitCreditLocked(true)
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.stats.Messages++
	e.sentMsgs.Add(1)
	e.stats.PayloadBytes += int64(payloadLen)
	e.stats.WireBytes += int64(len(msg))
	q := int(e.stats.Messages - e.acked)
	if q > e.stats.MaxQueued {
		e.stats.MaxQueued = q
	}
	e.mu.Unlock()
	e.obs.msgs.Inc()
	e.obs.dataBytes.Add(int64(len(msg)))
	e.obs.queueDepth.Set(int64(q))
	e.obs.tr.Instant("edge", e.obs.evSend, e.obs.pid, int(e.cfg.ID), obs.A("bytes", int64(len(msg))))
	if err := link.SendData(uint16(e.cfg.ID), msg); err != nil {
		return fmt.Errorf("spi: edge %d remote send: %w", e.cfg.ID, err)
	}
	return nil
}

// queueLocalLocked appends one encoded message to the local queue after
// waiting out the BBS capacity. Caller holds e.mu; released on return.
// On success the queue owns q's pooled buffer.
func (e *edge) queueLocalLocked(q queued, payloadLen int) error {
	e.waitCreditLocked(false)
	if e.closed {
		e.mu.Unlock()
		putMsg(q.buf)
		return ErrClosed
	}
	depth := e.pushLocked(q)
	if depth > e.stats.MaxQueued {
		e.stats.MaxQueued = depth
	}
	e.stats.Messages++
	e.sentMsgs.Add(1)
	e.stats.PayloadBytes += int64(payloadLen)
	e.stats.WireBytes += int64(len(q.msg))
	e.cond.Broadcast()
	e.mu.Unlock()
	e.obs.msgs.Inc()
	e.obs.dataBytes.Add(int64(len(q.msg)))
	e.obs.queueDepth.Set(int64(depth))
	e.obs.tr.Instant("edge", e.obs.evSend, e.obs.pid, int(e.cfg.ID), obs.A("bytes", int64(len(q.msg))))
	return nil
}

// Send transmits one payload. For Static edges the payload must have
// exactly the configured size; for Dynamic edges it must not exceed
// MaxBytes. Under BBS, Send blocks while the buffer is full. Send copies
// the payload; the caller may reuse its slice.
func (s *Sender) Send(payload []byte) error {
	e := s.e
	if err := e.checkPayload(payload); err != nil {
		return err
	}
	mb := getMsg()
	*mb = AppendMessage((*mb)[:0], e.cfg.Mode, e.cfg.ID, payload)
	e.mu.Lock()
	if link := e.remoteTx; link != nil {
		err := e.sendRemoteLocked(link, len(payload), *mb)
		putMsg(mb)
		return err
	}
	return e.queueLocalLocked(queued{msg: *mb, buf: mb}, len(payload))
}

// SendBatch transmits payloads in order, all of them validated before any
// moves — how an edge's delay tokens are preloaded (dist.go). On a remote
// edge the messages are handed to the link back to back, so its writer
// sends the burst in a few large writes; on a local edge the burst is
// queued under one lock acquisition and recorded as one aggregate trace
// event. BBS credit waits still apply per message, exactly as with
// repeated Send calls.
func (s *Sender) SendBatch(payloads [][]byte) error {
	e := s.e
	for _, p := range payloads {
		if err := e.checkPayload(p); err != nil {
			return err
		}
	}
	if len(payloads) == 0 {
		return nil
	}
	e.mu.Lock()
	if link := e.remoteTx; link != nil {
		e.mu.Unlock()
		mb := getMsg()
		for _, p := range payloads {
			*mb = AppendMessage((*mb)[:0], e.cfg.Mode, e.cfg.ID, p)
			e.mu.Lock()
			if err := e.sendRemoteLocked(link, len(p), *mb); err != nil {
				putMsg(mb)
				return err
			}
		}
		putMsg(mb)
		return nil
	}
	var wireBytes int64
	for _, p := range payloads {
		e.waitCreditLocked(false)
		if e.closed {
			e.mu.Unlock()
			return ErrClosed
		}
		mb := getMsg()
		*mb = AppendMessage((*mb)[:0], e.cfg.Mode, e.cfg.ID, p)
		if depth := e.pushLocked(queued{msg: *mb, buf: mb}); depth > e.stats.MaxQueued {
			e.stats.MaxQueued = depth
		}
		e.stats.Messages++
		e.sentMsgs.Add(1)
		e.stats.PayloadBytes += int64(len(p))
		e.stats.WireBytes += int64(len(*mb))
		wireBytes += int64(len(*mb))
		// Per-message wake-up: with a small BBS capacity the receiver must
		// drain between appends for the burst to make progress.
		e.cond.Broadcast()
	}
	depth := e.qdepthLocked()
	e.mu.Unlock()
	e.obs.msgs.Add(int64(len(payloads)))
	e.obs.dataBytes.Add(wireBytes)
	e.obs.queueDepth.Set(int64(depth))
	e.obs.tr.Instant("edge", e.obs.evSend, e.obs.pid, int(e.cfg.ID), obs.A("bytes", wireBytes))
	return nil
}

// Close marks the edge closed. Blocked senders and receivers return
// ErrClosed; queued messages are discarded.
func (s *Sender) Close() { s.e.close() }

// decodePayload validates one dequeued message and appends its payload to
// dst[:0], recycling the pooled message buffer either way.
func (e *edge) decodePayload(q queued, dst []byte) ([]byte, error) {
	var gotID EdgeID
	var payload []byte
	var err error
	if e.cfg.Mode == Static {
		gotID, payload, err = DecodeStatic(q.msg, e.cfg.PayloadBytes)
	} else {
		gotID, payload, err = DecodeDynamic(q.msg, e.cfg.MaxBytes)
	}
	if err == nil && gotID != e.cfg.ID {
		err = fmt.Errorf("spi: edge %d received message for edge %d", e.cfg.ID, gotID)
	}
	if err != nil {
		putMsg(q.buf)
		return nil, err
	}
	if dst == nil && len(payload) == 0 {
		putMsg(q.buf)
		return []byte{}, nil
	}
	out := append(dst[:0], payload...)
	putMsg(q.buf)
	return out, nil
}

// Receive blocks for the next message, decodes it, and returns the payload.
// Under UBS the receiver issues an acknowledgement (counted in stats) after
// consuming. The returned slice is owned by the caller.
func (rc *Receiver) Receive() ([]byte, error) {
	return rc.ReceiveInto(nil)
}

// ReceiveInto is Receive with a caller-supplied buffer: the payload is
// appended to buf[:0] (growing it as needed) and the resulting slice
// returned, so a steady-state receive loop that feeds each payload back
// in performs zero allocations. A nil buf behaves exactly like Receive.
func (rc *Receiver) ReceiveInto(buf []byte) ([]byte, error) {
	e := rc.e
	e.mu.Lock()
	for e.qdepthLocked() == 0 && !e.closed {
		e.cond.Wait()
	}
	if e.qdepthLocked() == 0 && e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	q := e.popLocked()
	depth := e.qdepthLocked()
	link := e.remoteRx
	acked := false
	if link == nil {
		if e.cfg.Protocol == UBS {
			e.acked++
			e.ackedMsgs.Add(1)
			e.stats.Acks++
			e.stats.AckBytes += AckMessageBytes
			acked = true
		}
	} else {
		// Remote edge: the credit/ack must cross the wire. Count it for
		// both protocols — on a network edge the BBS credit is a real
		// synchronization message, not a shared-memory pointer update.
		e.stats.Acks++
		e.stats.AckBytes += AckMessageBytes
		acked = true
	}
	e.cond.Broadcast() // return BBS credit / wake senders
	id := e.cfg.ID
	e.mu.Unlock()
	e.obs.queueDepth.Set(int64(depth))
	ts := e.obs.tr.Now()
	e.obs.tr.InstantAt(ts, "edge", e.obs.evRecv, e.obs.pid, int(id), obs.A("bytes", int64(len(q.msg))))
	if acked {
		e.obs.acks.Inc()
		e.obs.ackBytes.Add(AckMessageBytes)
		e.obs.tr.InstantAt(ts, "edge", e.obs.evAck, e.obs.pid, int(id))
	}
	if link != nil {
		// A failed ack only starves the remote sender of a credit, and a
		// link that cannot carry the ack has already died or closed — the
		// transport layer closes the affected edges, so the failure
		// surfaces there. The message itself was delivered; keep it.
		_ = link.SendAck(uint16(id), 1)
	}
	return e.decodePayload(q, buf)
}
