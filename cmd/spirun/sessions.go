package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/cmd/internal/runcfg"
	"repro/internal/dsp"
	"repro/internal/lpc"
	"repro/internal/session"
	"repro/internal/spi"
	"repro/internal/transport"
)

// sessionsResidual runs n concurrent actor-D sessions multiplexed over
// ONE shared link pair: the I/O side (node 0) opens each session through
// a session.Client, the worker side (node 1) admits and runs its half
// per session. Every session is a complete distributed execution of the
// error-generation system; all n residuals must be bit-identical. The
// returned stats aggregate both nodes across all sessions, with per-edge
// rows merged so each edge appears once no matter how many sessions
// crossed it.
func sessionsResidual(r *runcfg.Run, model *dsp.LPCModel, frame []float64, pes, n int) ([]float64, *spi.ExecStats, error) {
	if pes > len(frame) {
		pes = len(frame)
	}
	p := lpc.DefaultDeploy(len(frame), pes)
	p.SampleBytes = 8
	sys, err := lpc.ErrorGenSystem(p)
	if err != nil {
		return nil, nil, err
	}
	nodeOf := lpc.SplitIOWorkers(sys.Mapping.NumProcs, 2)
	decls0, err := spi.PeerDecls(sys.Graph, sys.Mapping, nodeOf, 0, r.Opts.Block)
	if err != nil {
		return nil, nil, err
	}
	decls1, err := spi.PeerDecls(sys.Graph, sys.Mapping, nodeOf, 1, r.Opts.Block)
	if err != nil {
		return nil, nil, err
	}

	tr, local, cleanup, err := r.OpenTransport()
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	ln, err := tr.Listen(local(0))
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()

	lcfg := runcfg.LinkConfig(&r.Opts)
	// One session's execution on one node: the flagged options over the
	// session stream in place of a transport of its own.
	sessionOpts := func(node int, s *session.Stream) spi.DistOptions {
		o := r.Opts
		o.Node, o.Addrs, o.NodeOf, o.Links = node, make([]string, 2), nodeOf, s
		return o
	}
	clientMux := session.NewMux(nil) // node 0: opens sessions, assembles residuals
	serverMux := session.NewMux(nil) // node 1: admits opens, runs the worker half
	accepted := make(chan *transport.Link, 1)
	acceptErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		cfg := lcfg
		cfg.Node = 0
		l, err := transport.AcceptLink(c, cfg,
			func(peer int) ([]transport.EdgeDecl, transport.Handler, error) {
				return decls0[peer], clientMux, nil
			})
		if err != nil {
			acceptErr <- err
			return
		}
		accepted <- l
	}()
	conn, err := transport.DialRetry(context.Background(), tr, ln.Addr(),
		transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond})
	if err != nil {
		return nil, nil, err
	}
	dcfg := lcfg
	dcfg.Node = 1
	dcfg.Edges = decls1[0]
	l1, err := transport.NewLink(conn, dcfg, serverMux)
	if err != nil {
		return nil, nil, err
	}
	defer l1.Abort()
	serverMux.Bind(l1)
	var l0 *transport.Link
	select {
	case l0 = <-accepted:
	case err := <-acceptErr:
		return nil, nil, err
	}
	defer l0.Abort()
	clientMux.Bind(l0)

	// Worker side: every OPEN is admitted and runs its half of the graph
	// session-scoped over the adopted stream.
	var (
		smu         sync.Mutex
		serverStats []*spi.ExecStats
		serverWG    sync.WaitGroup
	)
	serverMux.SetOnOpen(func(m *session.Mux, sid uint32, tenant string) {
		s := m.Adopt(sid, 0)
		m.Link().SendSessionOpenOK(sid, session.StatusAdmitted)
		serverWG.Add(1)
		go func() {
			defer serverWG.Done()
			_, st, err := lpc.DistributedResidual(model, frame, pes, 1, sessionOpts(1, s))
			status := byte(session.CloseDone)
			if err != nil {
				status = session.CloseError
			}
			m.Link().SendSessionClose(sid, status)
			m.Release(s)
			smu.Lock()
			if st != nil {
				serverStats = append(serverStats, st)
			}
			smu.Unlock()
		}()
	})

	client := session.NewClient(clientMux, 30*time.Second)
	// -deadline bounds every session's close wait at one shared wall-clock
	// instant, so n stragglers cannot serialize n full timeouts.
	var closeBy time.Time
	if r.Deadline > 0 {
		closeBy = time.Now().Add(r.Deadline)
	}
	results := make([][]float64, n)
	clientStats := make([]*spi.ExecStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := client.Open("spirun")
			if err != nil {
				errs[i] = err
				return
			}
			results[i], clientStats[i], err = lpc.DistributedResidual(model, frame, pes, 1, sessionOpts(0, s))
			status, cerr := s.AwaitCloseDeadline(closeBy)
			client.Done(s)
			if err == nil && cerr != nil {
				err = cerr
			}
			if err == nil && status != session.CloseDone {
				err = fmt.Errorf("worker side closed session with status %d", status)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	serverWG.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("session %d: %w", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if len(results[i]) != len(results[0]) {
			return nil, nil, fmt.Errorf("session %d returned %d samples, session 0 returned %d", i, len(results[i]), len(results[0]))
		}
		for j := range results[i] {
			if results[i][j] != results[0][j] {
				return nil, nil, fmt.Errorf("session %d sample %d = %g, session 0 = %g (not bit-identical)", i, j, results[i][j], results[0][j])
			}
		}
	}

	// Aggregate across sessions and both nodes: N sessions crossing one
	// edge produce one row with the summed counters, not N duplicate rows.
	return results[0], sumStats(append(clientStats, serverStats...)), nil
}
