package session

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/spi"
	"repro/internal/transport"
)

// serveLog records Serve's log lines.
type serveLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *serveLog) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *serveLog) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// served is a server running Serve on its own listener.
type served struct {
	srv  *Server
	ln   transport.Listener
	log  *serveLog
	done chan error // Serve's return
}

// startServing runs Serve for the test graph's server node over tr, with
// lcfg as the accepted links' tuning.
func startServing(t *testing.T, tr transport.Transport, addr string, iters int, lcfg transport.LinkConfig) *served {
	t.Helper()
	g, m := testGraph()
	srv, err := NewServer(ServerConfig{
		Graph: g, Mapping: m, NodeOf: testNodeOf, Node: serverNode,
		Iterations: iters, Kernels: defaultServerKernels,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &served{srv: srv, ln: ln, log: &serveLog{}, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln, lcfg, s.log.logf) }()
	return s
}

// stop shuts the listener — the documented way to stop Serve — and waits
// for Serve and then the server's sessions to wind down.
func (s *served) stop(t *testing.T) {
	t.Helper()
	s.ln.Close()
	select {
	case err := <-s.done:
		if err == nil {
			t.Error("Serve returned nil after its listener closed, want the listener's error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after its listener closed")
	}
	closed := make(chan struct{})
	go func() { s.srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after Serve aborted the links")
	}
}

// connect dials the server as the test graph's client node and returns a
// harness that runs sessions over the new link.
func (s *served) connect(t *testing.T, tr transport.Transport, iters int, rc transport.ReconnectConfig) *harness {
	t.Helper()
	g, m := testGraph()
	cdecls, err := spi.PeerDecls(g, m, testNodeOf, clientNode, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial(s.ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	mux := NewMux(nil)
	d, err := transport.NewLink(conn, transport.LinkConfig{
		Node: clientNode, Edges: cdecls[serverNode], Sessions: true, Reconnect: rc,
		Redial: func() (transport.Conn, error) { return tr.Dial(s.ln.Addr()) },
	}, mux)
	if err != nil {
		t.Fatal(err)
	}
	mux.Bind(d)
	return &harness{t: t, srv: s.srv, client: NewClient(mux, 10*time.Second), iters: iters, dialer: d, ln: s.ln}
}

// liveLinks is the number of links RESUME routing still scans.
func (s *served) liveLinks() int {
	s.srv.lmu.Lock()
	defer s.srv.lmu.Unlock()
	return len(s.srv.links)
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

var fastReconnect = transport.ReconnectConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Deadline: 20 * time.Second}

// TestServeResumeLandsOnOriginalLink severs the client's connection twice
// mid-session: each re-dial's RESUME must be routed to the link the session
// runs on — one link up for the whole run, no handshake refused — and the
// session's output must stay bit-identical to the local reference.
func TestServeResumeLandsOnOriginalLink(t *testing.T) {
	const iters = 12
	ref := localReference(t, iters)
	// Every connection is severed at its frame 10: the first one, after the
	// HELLO, the OPEN and at most eight of the session's twelve DATA frames,
	// mid-session however many acks a writer pass merges.
	ft := transport.NewFaultTransport(transport.NewLoopback(),
		transport.FaultConfig{Seed: 9, SeverAt: []int{10}, SkipFrames: 8})
	s := startServing(t, ft, "serve-resume", iters, transport.LinkConfig{Reconnect: fastReconnect})
	h := s.connect(t, ft, iters, fastReconnect)

	for i := 0; i < 2; i++ {
		sink, status, err := h.runSession("resume")
		if err != nil || status != CloseDone {
			t.Fatalf("session %d: status %s, err %v", i, closeString(status), err)
		}
		if !samePayloads(sink, ref) {
			t.Fatalf("session %d diverged from the reference across the resume", i)
		}
	}
	if st := ft.Stats(); st.Severs == 0 {
		t.Fatal("the schedule severed nothing; the test proved nothing")
	}
	if n := h.dialer.Stats().Resumes; n == 0 {
		t.Error("the client link never resumed")
	}
	if up, failed := s.log.count("link up"), s.log.count("handshake failed"); up != 1 || failed != 0 {
		t.Errorf("%d links came up and %d handshakes failed, want 1 and 0: a RESUME missed its link\n%v", up, failed, s.log.lines)
	}
	if n := s.liveLinks(); n != 1 {
		t.Errorf("%d live links registered, want the 1 original", n)
	}
	h.dialer.Abort()
	s.stop(t)
}

// TestServeForgetsDeadLink: the server's links fail fast (no reconnect), so
// a severed connection kills the accepted link at once. It must leave RESUME
// routing immediately: the client's re-dial, RESUME in hand, is refused for
// want of a resumable link instead of being handed a dead one.
func TestServeForgetsDeadLink(t *testing.T) {
	const iters = 12
	// Frame 10 of the client's connection comes before its session's twelfth
	// DATA frame, however many acks a writer pass merges (see
	// TestServeResumeLandsOnOriginalLink).
	ft := transport.NewFaultTransport(transport.NewLoopback(),
		transport.FaultConfig{Seed: 5, SeverAt: []int{10}, SkipFrames: 8})
	s := startServing(t, ft, "serve-dead", iters, transport.LinkConfig{})
	rc := fastReconnect
	rc.Attempts, rc.Deadline = 3, 2*time.Second
	h := s.connect(t, ft, iters, rc)
	waitFor(t, "the link to register", func() bool { return s.liveLinks() == 1 })

	if _, status, err := h.runSession("doomed"); err == nil && status == CloseDone {
		t.Fatal("the session survived a link the server could not resume")
	}
	waitFor(t, "the dead link to leave RESUME routing", func() bool { return s.liveLinks() == 0 })
	waitFor(t, "the client's RESUME to be refused", func() bool { return s.log.count("no resumable link") > 0 })
	if up := s.log.count("link up"); up != 1 {
		t.Errorf("%d links came up, want 1", up)
	}
	waitSnapshot(t, s.srv, "the doomed session to unwind", func(sn Snapshot) bool { return sn.Live == 0 })
	h.dialer.Abort()
	s.stop(t)
}

// TestServeStopAbortsLinks: closing the listener stops Serve, which aborts
// every live link — here one idle and one with a session open and blocked
// on its client — so Close can drain, and nothing is left running.
func TestServeStopAbortsLinks(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := transport.NewLoopback()
	s := startServing(t, tr, "serve-stop", 10, transport.LinkConfig{})
	idle := s.connect(t, tr, 10, transport.ReconnectConfig{})
	busy := s.connect(t, tr, 10, transport.ReconnectConfig{})
	held, err := busy.client.Open("held") // admitted, never run: its server half blocks on input
	if err != nil {
		t.Fatal(err)
	}
	waitSnapshot(t, s.srv, "the held session to go live", func(sn Snapshot) bool { return sn.Live == 1 })
	// Serve registers a link once its handshake returns, which may trail the
	// dialer's side of it.
	waitFor(t, "both links to register", func() bool { return s.liveLinks() == 2 })

	s.stop(t)
	if sn := s.srv.Snapshot(); sn.Live != 0 || sn.Failed != 1 {
		t.Errorf("after stop: %+v, want the held session unwound as failed", sn)
	}
	// The aborted links are gone from the clients' side too.
	if _, err := held.AwaitClose(5 * time.Second); err == nil {
		t.Error("the held session's client saw a clean close, want the link failure")
	}
	for _, h := range []*harness{idle, busy} {
		h.dialer.Abort()
	}
	waitFor(t, "every goroutine the server and links started to exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
}
