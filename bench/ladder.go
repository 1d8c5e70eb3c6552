package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/transport"
	"repro/internal/vts"
)

// The ladder. A traced run times the workload's layers one rung at a
// time, each rung a span around calls into one package's exported
// functions: kernels only → slab pack/unpack → spi edge queue and
// executor → link framing and CRC on loopback → the real carrier →
// acks/credits as configured. A layer's self time per unit is its rung
// minus the previous rung, times how often a unit crosses the layer (the
// counts come from the traced rounds' ExecStats); the budget closes with
// ladder.unattributed_ns_per_unit = measured per-unit wall - Σ self times.
// The self times are costs of work, the measured wall is of a pipeline on
// two cores, so the rest can be negative: that is overlap, not error.
type ladder struct {
	e      *env
	got    map[string]float64
	budget time.Duration // for all rungs together
	span   int

	// What the traced rounds counted, for sizing the rungs' messages and
	// for turning per-message and per-firing times into per-unit ones.
	msgsPerUnit    float64
	firingsPerUnit float64
	meanPayload    float64 // bytes per spi message
	block          int     // tokens per message; set by the workload's ladder
	clients        int     // sessions in flight; set by the sessions ladder
}

// rungs is how many timed rungs a networked workload has; each gets an
// equal share of the budget.
const rungs = 14

// rung times op, which performs n operations on a deployment set up
// outside it, in batches until the rung's share of the budget is used.
// It returns the median ns per operation over the batches and the mean
// allocations per operation.
func (l *ladder) rung(name string, n int, op func(n int) error) (nsPerOp, allocsPerOp float64, err error) {
	n = l.e.units(n)
	l.e.setPhase("ladder: " + name)
	id := l.e.tr.begin(name, l.span)
	share := l.budget / rungs
	var ns []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for t0 := time.Now(); len(ns) == 0 || time.Since(t0) < share; {
		b0 := time.Now()
		if err := op(n); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		ns = append(ns, float64(time.Since(b0).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&after)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(n*len(ns))
	nsPerOp = median(ns)
	l.e.tr.end(id, "ns_per_op", nsPerOp, "ops", float64(n*len(ns)))
	return nsPerOp, allocsPerOp, nil
}

// set records a per-layer metric.
func (l *ladder) set(name string, v float64) { l.got[name] = v }

// planStep is one planning call and the metric its time is reported as.
type planStep struct {
	name string
	f    func() error
}

// plan times each step with once.
func (l *ladder) plan(steps ...planStep) error {
	for _, s := range steps {
		if err := l.once(s.name, s.f); err != nil {
			return err
		}
	}
	return nil
}

// once times a single planning call in microseconds (median of five).
func (l *ladder) once(name string, f func() error) error {
	id := l.e.tr.begin(name, l.span)
	var us []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	l.set(name, median(us))
	l.e.tr.end(id)
	return nil
}

// edgeShape is the workload's representative interprocessor edge: the
// declaration spi.PeerDecls gives its heaviest edge (protocol, capacity,
// bound) and the mean payload the traced rounds measured on it.
type edgeShape struct {
	decl     transport.EdgeDecl // as the run declares it (slab bound when blocked)
	token    int                // bound of one token, before blocking
	block    int                // tokens per message; 1 is scalar
	msgBytes int                // payload bytes of the stream's messages
}

// shapeOf picks the heaviest edge crossing from node 0's processors under
// nodeOf and sizes the stream's messages from the measured mean.
func shapeOf(g *dataflow.Graph, m *sched.Mapping, nodeOf []int, block int, meanPayload float64) (edgeShape, error) {
	heaviest := func(block int) (transport.EdgeDecl, error) {
		decls, err := spi.PeerDecls(g, m, nodeOf, 0, block)
		if err != nil {
			return transport.EdgeDecl{}, err
		}
		var best transport.EdgeDecl
		for _, ds := range decls {
			for _, d := range ds {
				if d.Bytes > best.Bytes {
					best = d
				}
			}
		}
		if best.Bytes == 0 {
			return best, fmt.Errorf("graph %s has no edge leaving node 0", g.Name())
		}
		return best, nil
	}
	scalar, err := heaviest(0)
	if err != nil {
		return edgeShape{}, err
	}
	s := edgeShape{decl: scalar, token: int(scalar.Bytes), block: max(block, 1)}
	if block > 1 {
		if s.decl, err = heaviest(block); err != nil {
			return edgeShape{}, err
		}
	}
	s.decl.Out = true
	s.msgBytes = int(s.decl.Bytes)
	if spi.Mode(s.decl.Mode) == spi.Dynamic && meanPayload >= 1 {
		s.msgBytes = min(int(meanPayload), s.msgBytes)
	}
	return s, nil
}

func (s edgeShape) config() spi.EdgeConfig {
	cfg := spi.EdgeConfig{
		ID: spi.EdgeID(s.decl.ID), Mode: spi.Mode(s.decl.Mode),
		Protocol: spi.Protocol(s.decl.Protocol), Capacity: int(s.decl.Capacity),
	}
	if cfg.Mode == spi.Static {
		cfg.PayloadBytes = int(s.decl.Bytes)
	} else {
		cfg.MaxBytes = int(s.decl.Bytes)
	}
	return cfg
}

func (s edgeShape) dynamic() bool { return spi.Mode(s.decl.Mode) == spi.Dynamic }

// spiRungs times the spi layer's exported pieces at the edge's shape:
// slab pack/unpack (blocked edges only), message header encode/decode,
// and one in-process edge queue across two goroutines.
func (l *ladder) spiRungs(s edgeShape) error {
	payload := make([]byte, s.msgBytes)
	if s.block > 1 {
		tokens := make([][]byte, s.block)
		for i := range tokens {
			tokens[i] = make([]byte, min(s.token, max(1, s.msgBytes/s.block)))
		}
		slab, err := spi.PackSlab(nil, tokens, s.token, s.dynamic())
		if err != nil {
			return err
		}
		dst := make([]byte, 0, len(slab))
		ns, _, err := l.rung("spi.PackSlab", 2000, func(n int) error {
			for i := 0; i < n; i++ {
				if dst, err = spi.PackSlab(dst[:0], tokens, s.token, s.dynamic()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.set("spi.slab_pack_ns_per_token", ns/float64(s.block))
		views := make([][]byte, 0, s.block)
		ns, _, err = l.rung("spi.UnpackSlab", 2000, func(n int) error {
			for i := 0; i < n; i++ {
				if views, err = spi.UnpackSlab(slab, s.block, s.token, s.dynamic(), views[:0]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.set("spi.slab_unpack_ns_per_token", ns/float64(s.block))
		payload = slab
	}

	mode, id := spi.Mode(s.decl.Mode), spi.EdgeID(s.decl.ID)
	var msg []byte
	ns, _, err := l.rung("spi.AppendMessage+Decode", 20000, func(n int) error {
		for i := 0; i < n; i++ {
			msg = spi.AppendMessage(msg[:0], mode, id, payload)
			var err error
			if mode == spi.Static {
				_, _, err = spi.DecodeStatic(msg, len(payload))
			} else {
				_, _, err = spi.DecodeDynamic(msg, int(s.decl.Bytes))
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("spi.header_ns_per_msg", ns)

	ns, allocs, err := l.edgeRung("spi.Runtime edge", s.config(), len(payload))
	if err != nil {
		return err
	}
	l.set("spi.edge_ns_per_msg", ns)
	l.set("spi.edge_allocs_per_msg", allocs)
	return nil
}

// edgeRung streams messages through one in-process edge: Runtime.Init,
// then Sender.Send on one goroutine and Receiver.ReceiveInto on another.
func (l *ladder) edgeRung(name string, cfg spi.EdgeConfig, size int) (ns, allocs float64, err error) {
	rt := spi.NewRuntime()
	defer rt.CloseAll()
	tx, rx, err := rt.Init(cfg)
	if err != nil {
		return 0, 0, err
	}
	return l.rung(name, 20000, func(n int) error { return stream(tx, rx, size, n) })
}

// stream sends n messages of size bytes on tx while a second goroutine
// drains rx, and returns when the last one has arrived.
func stream(tx *spi.Sender, rx *spi.Receiver, size, n int) error {
	payload := make([]byte, size)
	drained := make(chan error, 1)
	go func() {
		buf := make([]byte, 0, size)
		for i := 0; i < n; i++ {
			p, err := rx.ReceiveInto(buf)
			if err != nil {
				drained <- err
				return
			}
			buf = p[:0]
		}
		drained <- nil
	}()
	for i := 0; i < n; i++ {
		if err := tx.Send(payload); err != nil {
			return err
		}
	}
	return <-drained
}

// noopKernels fire without computing: every output is a preallocated
// payload of the edge's packed-token bound, so an execution of them costs
// only the executor and its edge queues.
func noopKernels(g *dataflow.Graph) (map[dataflow.ActorID]spi.Kernel, error) {
	conv, err := vts.Convert(g)
	if err != nil {
		return nil, err
	}
	ks := map[dataflow.ActorID]spi.Kernel{}
	for _, a := range g.Actors() {
		outs := map[dataflow.EdgeID][]byte{}
		for _, eid := range g.Out(a) {
			outs[eid] = make([]byte, conv.Info(eid).BMax)
		}
		ks[a] = func(int, map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) { return outs, nil }
	}
	return ks, nil
}

// execRungs times spi.Execute and, for a blocked workload,
// spi.ExecuteBlocked over the workload's graph and mapping with no-op
// kernels, all processors in this one process: ns per actor firing.
func (l *ladder) execRungs(g *dataflow.Graph, m *sched.Mapping, block int) error {
	ks, err := noopKernels(g)
	if err != nil {
		return err
	}
	firings := float64(len(g.Actors()))
	ns, _, err := l.rung("spi.Execute", 2000, func(n int) error {
		_, err := spi.Execute(g, m, ks, n)
		return err
	})
	if err != nil {
		return err
	}
	l.set("spi.exec_ns_per_firing", ns/firings)
	if block > 1 {
		ctx, cancel := context.WithTimeout(context.Background(), roundDeadline)
		defer cancel()
		ns, _, err = l.rung("spi.ExecuteBlocked", 2000, func(n int) error {
			_, err := spi.ExecuteBlocked(g, m, ks, n, spi.VecOptions{Block: block, Context: ctx, StallTimeout: stallTimeout})
			return err
		})
		if err != nil {
			return err
		}
		l.set("spi.exec_blocked_ns_per_firing", ns/firings)
	}
	return nil
}

// carrier names a byte transport and the address its listeners bind.
type carrier struct {
	tr     transport.Transport
	listen string
}

var loopbackCarrier = carrier{transport.NewLoopback(), "bench-ladder"}

// connPair dials one raw connection on c.
func (c carrier) connPair() (dialed, accepted transport.Conn, err error) {
	ln, err := c.tr.Listen(c.listen)
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type result struct {
		conn transport.Conn
		err  error
	}
	acc := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		acc <- result{conn, err}
	}()
	dialed, err = transport.DialRetry(context.Background(), c.tr, ln.Addr(), transport.RetryConfig{})
	if err != nil {
		return nil, nil, err
	}
	r := <-acc
	if r.err != nil {
		dialed.Close()
		return nil, nil, r.err
	}
	return dialed, r.conn, nil
}

// carrierRungs times the raw Conn of the workload's carrier at the
// message's wire size: a one-way stream (ns per message) and a ping-pong
// (round trip in microseconds).
func (l *ladder) carrierRungs(c carrier, wire int) error {
	a, b, err := c.connPair()
	if err != nil {
		return err
	}
	defer a.Close()
	defer b.Close()
	out, in := make([]byte, wire), make([]byte, wire)
	ns, _, err := l.rung("transport.Conn stream", 20000, func(n int) error {
		done := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if _, err := io.ReadFull(b, in); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < n; i++ {
			if _, err := a.Write(out); err != nil {
				return err
			}
		}
		return <-done
	})
	if err != nil {
		return err
	}
	l.set("transport.carrier_ns_per_msg", ns)

	echoErr := make(chan error, 1)
	echoes := make(chan int)
	go func() {
		buf := make([]byte, wire)
		for n := range echoes {
			for i := 0; i < n; i++ {
				if _, err := io.ReadFull(b, buf); err != nil {
					echoErr <- err
					return
				}
				if _, err := b.Write(buf); err != nil {
					echoErr <- err
					return
				}
			}
		}
		echoErr <- nil
	}()
	ns, _, err = l.rung("transport.Conn round trip", 2000, func(n int) error {
		echoes <- n
		for i := 0; i < n; i++ {
			if _, err := a.Write(out); err != nil {
				return err
			}
			if _, err := io.ReadFull(a, in); err != nil {
				return err
			}
		}
		return nil
	})
	close(echoes)
	if err != nil {
		return err
	}
	if err := <-echoErr; err != nil {
		return err
	}
	l.set("transport.carrier_rtt_us", ns/1e3)
	return nil
}

// linkTune is the link-level tuning a workload runs with.
type linkTune struct {
	batch     transport.BatchConfig
	piggyback bool
	resync    bool
}

func (t linkTune) config(node int, s edgeShape) transport.LinkConfig {
	cfg := transport.LinkConfig{
		Node: node, Batch: t.batch, PiggybackAcks: t.piggyback, Blocked: s.block > 1,
	}
	if t.resync && spi.Protocol(s.decl.Protocol) == spi.UBS {
		cfg.ResyncEdges = []uint16{s.decl.ID}
	}
	return cfg
}

// linkPair brings one link up on c: the dialer (node 0) sends on the
// edge, the acceptor (node 1) receives. It returns the two ends and how
// long the dialer took from Dial to NewLink returning.
func linkPair(c carrier, s edgeShape, t linkTune, ha, hb transport.Handler) (a, b *transport.Link, handshake time.Duration, err error) {
	ln, err := c.tr.Listen(c.listen)
	if err != nil {
		return nil, nil, 0, err
	}
	defer ln.Close()
	type result struct {
		l   *transport.Link
		err error
	}
	acc := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			acc <- result{nil, err}
			return
		}
		mirror := s.decl
		mirror.Out = false
		l, err := transport.AcceptLink(conn, t.config(1, s),
			func(int) ([]transport.EdgeDecl, transport.Handler, error) {
				return []transport.EdgeDecl{mirror}, hb, nil
			})
		acc <- result{l, err}
	}()
	t0 := time.Now()
	conn, err := transport.DialRetry(context.Background(), c.tr, ln.Addr(), transport.RetryConfig{})
	if err != nil {
		return nil, nil, 0, err
	}
	cfg := t.config(0, s)
	cfg.Edges = []transport.EdgeDecl{s.decl}
	a, err = transport.NewLink(conn, cfg, ha)
	handshake = time.Since(t0)
	r := <-acc
	if err != nil || r.err != nil {
		if a != nil {
			a.Abort()
		}
		if r.l != nil {
			r.l.Abort()
		}
		if err == nil {
			err = r.err
		}
		return nil, nil, 0, err
	}
	return a, r.l, handshake, nil
}

// countingSink is the link rung's receiving end: a handler that does
// nothing with DATA frames but count them, and signals when the expected
// number is in.
//
// It sends no SPI acks back. A handler, or anything else, that sends
// numbered frames against the stream makes both links' reader goroutines
// write cumulative acks, and on the unbuffered loopback carrier two
// readers writing at once never read again: the link wedges (seen here
// with SendAck per frame; recorded in the README, not fixed here). Acks
// and credits are therefore the next rung's, on the workload's carrier.
type countingSink struct {
	got    atomic.Int64
	target atomic.Int64
	full   chan struct{}
}

func (h *countingSink) HandleData(uint16, []byte) {
	if h.got.Add(1) == h.target.Load() {
		h.full <- struct{}{}
	}
}
func (h *countingSink) HandleAck(uint16, uint32) {}
func (h *countingSink) HandleFin(uint16)         {}
func (h *countingSink) HandleLinkClose(error)    {}

type nopHandler struct{}

func (nopHandler) HandleData(uint16, []byte) {}
func (nopHandler) HandleAck(uint16, uint32)  {}
func (nopHandler) HandleFin(uint16)          {}
func (nopHandler) HandleLinkClose(error)     {}

// linkRung streams framed messages over one link on c with a no-op
// handler behind it: NewLink/AcceptLink and SendData under the workload's
// batching: framing, CRC, sequence numbers, the resend buffer and its
// cumulative acks.
func (l *ladder) linkRung(name string, c carrier, s edgeShape, t linkTune) (ns, allocs float64, err error) {
	sink := &countingSink{full: make(chan struct{}, 1)}
	a, b, _, err := linkPair(c, s, t, nopHandler{}, sink)
	if err != nil {
		return 0, 0, err
	}
	defer a.Abort()
	defer b.Abort()
	msg := spi.AppendMessage(nil, spi.Mode(s.decl.Mode), spi.EdgeID(s.decl.ID), make([]byte, s.msgBytes))
	return l.rung(name, 20000, func(n int) error {
		sink.target.Store(sink.got.Load() + int64(n))
		for i := 0; i < n; i++ {
			if err := a.SendData(s.decl.ID, msg); err != nil {
				return err
			}
		}
		select {
		case <-sink.full:
			return nil
		case <-time.After(roundDeadline):
			return fmt.Errorf("link delivered %d of %d frames before the deadline", sink.got.Load(), sink.target.Load())
		}
	})
}

// runtimeHandler feeds a link's inbound traffic into an spi.Runtime, as
// the distributed executor's handler does.
type runtimeHandler struct{ rt *spi.Runtime }

func (h runtimeHandler) HandleData(edge uint16, msg []byte)  { h.rt.DeliverData(edge, msg) }
func (h runtimeHandler) HandleAck(edge uint16, count uint32) { h.rt.DeliverAck(edge, count) }
func (h runtimeHandler) HandleFin(edge uint16)               { h.rt.CloseEdge(spi.EdgeID(edge)) }
func (h runtimeHandler) HandleLinkClose(error)               { h.rt.CloseAll() }

// errWedged marks a remote-edge batch that stopped moving.
var errWedged = errors.New("stream stopped moving")

// remoteEdgeRung is the top rung: the edge's two halves live in two
// runtimes bound to the two ends of a link, so every message pays the
// protocol as configured: UBS acknowledgements or BBS credits flow back
// against the stream. On the loopback carrier that two-way traffic can
// wedge the link (see countingSink); a batch that stops moving for
// stallTimeout is torn down, counted in ladder.wedged_batches and the rung
// starts over on a fresh link, up to three times.
func (l *ladder) remoteEdgeRung(c carrier, s edgeShape, t linkTune) (float64, error) {
	for attempt := 0; ; attempt++ {
		ns, err := l.remoteEdgeOnce(c, s, t)
		if !errors.Is(err, errWedged) || attempt == 2 {
			return ns, err
		}
		l.got["ladder.wedged_batches"]++
	}
}

func (l *ladder) remoteEdgeOnce(c carrier, s edgeShape, t linkTune) (float64, error) {
	rtA, rtB := spi.NewRuntime(), spi.NewRuntime()
	defer rtA.CloseAll()
	defer rtB.CloseAll()
	tx, _, err := rtA.Init(s.config())
	if err != nil {
		return 0, err
	}
	_, rx, err := rtB.Init(s.config())
	if err != nil {
		return 0, err
	}
	a, b, _, err := linkPair(c, s, t, runtimeHandler{rtA}, runtimeHandler{rtB})
	if err != nil {
		return 0, err
	}
	defer a.Abort()
	defer b.Abort()
	id := spi.EdgeID(s.decl.ID)
	if err := rtA.BindRemoteSender(id, a); err != nil {
		return 0, err
	}
	if err := rtB.BindRemoteReceiver(id, b); err != nil {
		return 0, err
	}
	ns, _, err := l.rung("spi edge over link", 5000, func(n int) error {
		done := make(chan error, 1)
		go func() { done <- stream(tx, rx, s.msgBytes, n) }()
		select {
		case err := <-done:
			return err
		case <-time.After(stallTimeout):
			// Closing the runtimes releases the blocked Send and
			// ReceiveInto, so the streaming goroutines end.
			a.Abort()
			b.Abort()
			rtA.CloseAll()
			rtB.CloseAll()
			<-done
			return errWedged
		}
	})
	return ns, err
}

// transportRungs runs the networked rungs for a workload whose
// cross-node messages look like s on carrier c.
func (l *ladder) transportRungs(c carrier, s edgeShape, t linkTune) error {
	wire := s.msgBytes + spi.HeaderBytes(spi.Mode(s.decl.Mode))
	if err := l.carrierRungs(c, wire); err != nil {
		return err
	}
	ns, _, err := l.linkRung("transport.Link on loopback", loopbackCarrier, s, t)
	if err != nil {
		return err
	}
	l.set("transport.link_loopback_ns_per_msg", ns)
	ns, allocs, err := l.linkRung("transport.Link on "+c.tr.Name(), c, s, t)
	if err != nil {
		return err
	}
	l.set("transport.link_ns_per_msg", ns)
	l.set("transport.link_allocs_per_msg", allocs)
	if ns, err = l.remoteEdgeRung(c, s, t); err != nil {
		return err
	}
	l.set("transport.edge_ns_per_msg", ns)

	id := l.e.tr.begin("transport handshake x20", l.span)
	var us []float64
	for i := 0; i < 20; i++ {
		a, b, d, err := linkPair(c, s, t, nopHandler{}, nopHandler{})
		if err != nil {
			return err
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
		var wg sync.WaitGroup
		for _, x := range []*transport.Link{a, b} {
			wg.Add(1)
			go func(x *transport.Link) { defer wg.Done(); x.Abort() }(x)
		}
		wg.Wait()
	}
	l.e.tr.end(id)
	l.set("transport.handshake_us", median(us))
	return nil
}

// finish closes the budget and prints it.
func (l *ladder) finish(workload string, w io.Writer) {
	g := l.got
	msgs, firings := l.msgsPerUnit, l.firingsPerUnit
	remote := 0.0
	if g["transport.link_ns_per_msg"] > 0 {
		remote = msgs
	}
	pos := func(v float64) float64 { return max(v, 0) }

	g["ladder.kernel_ns_per_unit"] = g["kernel.ns_per_unit"]
	g["ladder.slab_ns_per_unit"] = (g["spi.slab_pack_ns_per_token"] + g["spi.slab_unpack_ns_per_token"]) * msgs * float64(l.block)
	switch exec := max(g["spi.exec_blocked_ns_per_firing"], 0); {
	case exec > 0:
		g["ladder.spi_ns_per_unit"] = exec * firings
	case g["spi.exec_ns_per_firing"] > 0:
		g["ladder.spi_ns_per_unit"] = g["spi.exec_ns_per_firing"] * firings
	default: // no executor on the path: the edges alone
		g["ladder.spi_ns_per_unit"] = g["spi.edge_ns_per_msg"] * msgs
	}
	g["ladder.link_ns_per_unit"] = g["transport.link_loopback_ns_per_msg"] * remote
	g["ladder.carrier_ns_per_unit"] = pos(g["transport.link_ns_per_msg"]-g["transport.link_loopback_ns_per_msg"]) * remote
	g["ladder.acks_ns_per_unit"] = pos(g["transport.edge_ns_per_msg"]-g["transport.link_ns_per_msg"]) * remote

	layers := []string{"kernel", "slab", "spi", "link", "carrier", "acks", "session", "orch"}
	sum := 0.0
	for _, name := range layers {
		sum += g["ladder."+name+"_ns_per_unit"]
	}
	g["ladder.unattributed_ns_per_unit"] = g["ladder.measured_ns_per_unit"] - sum
	if sum > 0 {
		g["ladder.transport_share"] = (g["ladder.link_ns_per_unit"] + g["ladder.carrier_ns_per_unit"] + g["ladder.acks_ns_per_unit"]) / sum
	}

	fmt.Fprintf(w, "ladder %s: per-unit budget, measured %.0f ns\n", workload, g["ladder.measured_ns_per_unit"])
	for _, name := range layers {
		if v := g["ladder."+name+"_ns_per_unit"]; v != 0 {
			fmt.Fprintf(w, "  %-12s %12.0f ns  %5.1f%% of the attributed\n", name, v, 100*v/sum)
		}
	}
	fmt.Fprintf(w, "  %-12s %12.0f ns\n", "unattributed", g["ladder.unattributed_ns_per_unit"])
}
