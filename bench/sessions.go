package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/session"
	"repro/internal/spi"
	"repro/internal/transport"
)

// sessions_tcp: what spiload -inproc-tcp does. A session.NewServer in
// this process serves the built-in loadgen graph's source partition over
// TCP; closed-loop clients on one shared link each open a session, run
// the sink partition for 10 iterations, await the close and verify the
// digest. Many short lives: SOPEN/SCLOSE round trips, admission and the
// per-session ExecuteDistributed set-up dominate.
const (
	sessionGraph = `graph loadgen
actor src 100
actor mid 150
actor sink 50
edge sm src mid 4 4 bytes=2 delay=4
edge ms mid sink 4 4 bytes=2 dynamic
`
	sessionIters   = 10
	sessionTenants = 4
	sessionClient  = 1 // the client's node; the server is node 0
	sessionTimeout = 30 * time.Second
)

type sessionsWorkload struct {
	sessions int // per round, at scale 1

	d       *demoGraph
	want    map[string]uint64
	clients int

	// What the traced run keeps, under mu: the sampled sessions' three
	// phases in microseconds, the tokens they moved, and the
	// server's admission counts summed over rounds.
	mu                      sync.Mutex
	openUS, execUS, closeUS []float64
	tokens                  int64
	snap                    session.Snapshot
}

func (w *sessionsWorkload) init(e *env) error {
	d, err := newDemoGraph(sessionGraph, []int{0, 1, 1}, []int{0, 1}, e.seed)
	if err != nil {
		return err
	}
	w.d, w.clients = d, clients()
	w.want, err = d.reference(sessionIters)
	return err
}

func (w *sessionsWorkload) close() {}

// serve starts the in-process session server on tr and returns its
// address, the server (for its admission snapshot) and a stop function.
func (w *sessionsWorkload) serve(e *env, tr transport.Transport) (string, *session.Server, func(), error) {
	sdecls, err := spi.PeerDecls(w.d.g, w.d.m, w.d.nodeOf, 0, 0)
	if err != nil {
		return "", nil, nil, err
	}
	srv, err := session.NewServer(session.ServerConfig{
		Graph: w.d.g, Mapping: w.d.m, NodeOf: w.d.nodeOf, Node: 0, Iterations: sessionIters,
		Kernels: func(uint32, string) map[dataflow.ActorID]spi.Kernel {
			ks, _, err := w.d.kernels()
			if err != nil {
				return map[dataflow.ActorID]spi.Kernel{} // the session then fails by name: "has no kernel"
			}
			return ks
		},
		SessionTimeout: sessionTimeout,
		Obs:            e.obs,
	})
	if err != nil {
		return "", nil, nil, err
	}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, nil, err
	}
	var mu sync.Mutex
	var links []*transport.Link
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed by stop
			}
			var mux *session.Mux
			l, err := transport.AcceptConn(conn, transport.LinkConfig{Node: 0, Sessions: true, Obs: e.obs},
				func(peer int) ([]transport.EdgeDecl, transport.Handler, error) {
					if sdecls[peer] == nil {
						return nil, nil, fmt.Errorf("no shared edges with node %d", peer)
					}
					mux = session.NewMux(e.obs)
					return sdecls[peer], mux, nil
				}, nil)
			if err != nil {
				conn.Close()
				continue // the client's NewLink reports the failed handshake
			}
			mu.Lock()
			links = append(links, l)
			mu.Unlock()
			mux.Bind(l)
			srv.Attach(mux)
		}
	}()
	stop := func() {
		ln.Close()
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		for _, l := range links {
			l.Abort()
		}
		srv.Close()
	}
	return ln.Addr(), srv, stop, nil
}

func (w *sessionsWorkload) round(e *env) (roundStats, error) {
	return w.run(e, e.units(w.sessions), true)
}

// probe starts a server, connects and runs one session.
func (w *sessionsWorkload) probe(e *env) (roundStats, error) {
	t0 := time.Now()
	rs, err := w.run(e, 1, false)
	if err == nil {
		e.m.setup(time.Since(t0))
	}
	return rs, err
}

// run serves, connects one shared link and drives n sessions through it
// from the closed-loop clients.
func (w *sessionsWorkload) run(e *env, n int, sample bool) (roundStats, error) {
	tr := &transport.TCP{}
	addr, srv, stop, err := w.serve(e, tr)
	if err != nil {
		return failedRound(n, err)
	}
	defer stop()

	cdecls, err := spi.PeerDecls(w.d.g, w.d.m, w.d.nodeOf, sessionClient, 0)
	if err != nil {
		return failedRound(n, err)
	}
	conn, err := transport.DialRetry(context.Background(), tr, addr, transport.RetryConfig{Attempts: 100, BaseDelay: time.Millisecond})
	if err != nil {
		return failedRound(n, err)
	}
	mux := session.NewMux(e.obs)
	link, err := transport.NewLink(conn, transport.LinkConfig{Node: sessionClient, Edges: cdecls[0], Sessions: true, Obs: e.obs}, mux)
	if err != nil {
		return failedRound(n, err)
	}
	defer link.Abort()
	mux.Bind(link)
	client := session.NewClient(mux, sessionTimeout)

	var (
		next  atomic.Int64
		mu    sync.Mutex // guards rs and first
		rs    = roundStats{attempted: n}
		first error
		wg    sync.WaitGroup
	)
	s := stride(n)
	for c := 0; c < min(w.clients, n); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				st, err := w.one(e, client, "tenant-"+strconv.Itoa(i%sessionTenants), sample && i%s == 0)
				mu.Lock()
				if err != nil {
					rs.failed++
					if first == nil {
						first = fmt.Errorf("session %d: %w", i, err)
					}
				}
				rs.addExec(st)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if e.tr != nil {
		snap := srv.Snapshot()
		w.snap.Admitted += snap.Admitted
		w.snap.Rejected += snap.Rejected
		w.snap.Shed += snap.Shed
		w.snap.Failed += snap.Failed
	}
	return rs, first
}

// one drives a single session end to end: open, run the client partition
// over the session's stream, await the server's close, verify the digest.
func (w *sessionsWorkload) one(e *env, client *session.Client, tenant string, sample bool) (*spi.ExecStats, error) {
	ks, digests, err := w.d.kernels()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), roundDeadline)
	defer cancel()
	t0 := time.Now()
	s, err := client.Open(tenant)
	if err != nil {
		var oe *session.OpenError
		if errors.As(err, &oe) {
			return nil, fmt.Errorf("refused: %w", err)
		}
		return nil, err
	}
	t1 := time.Now()
	stats, execErr := spi.ExecuteDistributed(w.d.g, w.d.m, ks, sessionIters, spi.DistOptions{
		Node: sessionClient, Addrs: make([]string, 2), NodeOf: w.d.nodeOf, Links: s,
		Context: ctx, StallTimeout: stallTimeout, Obs: e.obs,
	})
	t2 := time.Now()
	status, closeErr := s.AwaitCloseDeadline(t0.Add(sessionTimeout))
	client.Done(s)
	t3 := time.Now()
	if sample {
		e.m.unitLatency(t3.Sub(t0))
	}
	switch {
	case execErr != nil:
		return nil, execErr
	case closeErr != nil:
		return nil, closeErr
	case status != session.CloseDone:
		return nil, fmt.Errorf("closed with status %s", session.StatusString(status))
	}
	if err := w.d.check(digests, w.want, sessionClient); err != nil {
		return nil, err
	}
	if e.tr != nil && sample {
		w.span(e, stats, t0, t1, t2, t3)
	}
	return stats, nil
}

// span records one traced session's three phases and the tokens it moved.
func (w *sessionsWorkload) span(e *env, stats *spi.ExecStats, t0, t1, t2, t3 time.Time) {
	us := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e3 }
	w.mu.Lock()
	w.openUS = append(w.openUS, us(t0, t1))
	w.execUS = append(w.execUS, us(t1, t2))
	w.closeUS = append(w.closeUS, us(t2, t3))
	// Sends count as Messages; on inbound edges the consumption shows up
	// as Acks instead, so the larger of the two counts each edge once.
	for _, edge := range stats.Edges {
		w.tokens += max(edge.Stats.Messages, edge.Stats.Acks)
	}
	w.mu.Unlock()
	id := e.tr.at("session", 0, t0, t3)
	e.tr.at("session.open", id, t0, t1)
	e.tr.at("session.exec", id, t1, t2)
	e.tr.at("session.close", id, t2, t3)
}

func (w *sessionsWorkload) ladder(e *env, l *ladder) error {
	w.mu.Lock()
	open, exec, cl := median(w.openUS), median(w.execUS), median(w.closeUS)
	w.mu.Unlock()
	l.set("session.open_us", open)
	l.set("session.exec_us", exec)
	l.set("session.close_us", cl)
	if n, ns := len(w.openUS), l.got["ladder.measured_ns_per_unit"]; n > 0 && ns > 0 {
		// tokens per sampled session × sessions per second
		l.set("session.tokens_per_s", float64(w.tokens)/float64(n)*1e9/ns)
	}
	l.set("session.admitted", float64(w.snap.Admitted))
	l.set("session.rejected", float64(w.snap.Rejected))
	l.set("session.shed", float64(w.snap.Shed))
	l.set("session.failed", float64(w.snap.Failed))
	// A session's open and close round trips overlap with the other
	// clients' sessions, so one unit's share of them is 1/clients.
	l.set("ladder.session_ns_per_unit", (open+cl)*1e3/float64(w.clients))

	if err := w.d.ladder(l); err != nil {
		return err
	}
	return l.transportRungs(carrier{&transport.TCP{}, "127.0.0.1:0"}, w.d.shape, linkTune{})
}
