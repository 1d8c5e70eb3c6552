package session

import (
	"fmt"
	"sync"

	"repro/internal/spi"
	"repro/internal/transport"
)

// Serve is the server's listening side. Until ln fails — closing it is how a
// caller stops the server — it accepts client links, handshakes each against
// this node's edge manifest and Attaches it, routes a RESUME to its live
// link, and forgets a link the moment it dies. It then aborts the links
// still alive, so their sessions unwind and Close can drain, and returns
// the listener's error. Of lcfg only link tuning is used: Node, Sessions,
// Blocked and Obs are the server's own. logf gets a line per link event.
func (s *Server) Serve(ln transport.Listener, lcfg transport.LinkConfig, logf func(format string, args ...any)) error {
	decls, err := spi.PeerDecls(s.cfg.Graph, s.cfg.Mapping, s.cfg.NodeOf, s.cfg.Node, s.cfg.Block)
	if err == nil && len(decls) == 0 {
		err = fmt.Errorf("session: node %d shares no edges with any peer; nothing to serve", s.cfg.Node)
	}
	if err != nil {
		return err
	}
	lcfg.Node, lcfg.Sessions, lcfg.Blocked, lcfg.Obs = s.cfg.Node, true, s.cfg.Block > 1, s.cfg.Obs
	var handshakes sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			handshakes.Wait()
			s.lmu.Lock()
			live := s.links
			s.links = map[*Mux]*transport.Link{}
			s.lmu.Unlock()
			// Outside lmu: each Abort's close notification re-enters it.
			for _, l := range live {
				l.Abort()
			}
			return err
		}
		handshakes.Add(1)
		go func() {
			defer handshakes.Done()
			s.accept(conn, lcfg, decls, logf)
		}()
	}
}

// accept runs one inbound connection's handshake and, for a new link,
// enters it into RESUME routing until its close notification removes it.
func (s *Server) accept(conn transport.Conn, lcfg transport.LinkConfig, decls map[int][]transport.EdgeDecl, logf func(string, ...any)) {
	var mux *Mux
	l, err := transport.AcceptConn(conn, lcfg,
		func(peer int) ([]transport.EdgeDecl, transport.Handler, error) {
			if decls[peer] == nil {
				return nil, nil, fmt.Errorf("no shared edges with node %d", peer)
			}
			mux = NewMux(s.cfg.Obs)
			mux.onClose = func() {
				s.lmu.Lock()
				delete(s.links, mux)
				s.lmu.Unlock()
			}
			return decls[peer], mux, nil
		},
		func(peer int, token uint64) *transport.Link {
			s.lmu.Lock()
			defer s.lmu.Unlock()
			for _, l := range s.links {
				if l.PeerNode() == peer && l.Token() == token {
					return l
				}
			}
			return nil
		})
	if err != nil {
		logf("handshake failed: %v", err)
	}
	if l == nil {
		return // failed, or a RESUME already routed to its link
	}
	mux.Bind(l)
	// The reader already runs: a link that died first is never entered.
	s.lmu.Lock()
	mux.mu.Lock()
	if !mux.closed {
		s.links[mux] = l
	}
	mux.mu.Unlock()
	s.lmu.Unlock()
	logf("link up from node %d", l.PeerNode())
	s.Attach(mux)
}
