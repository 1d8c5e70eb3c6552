package transport

import (
	"errors"
	"net"
	"sync"
	"time"
)

// errLoopbackRefused mirrors ECONNREFUSED for the in-memory transport.
var errLoopbackRefused = errors.New("no listener on address")

// Loopback is an in-memory Transport: addresses are arbitrary strings
// scoped to one Loopback instance, and connections are synchronous pipes
// (net.Pipe) with full deadline support. It exists so transport-layer
// tests and benchmarks exercise the exact framing and link code that TCP
// runs, minus the kernel.
type Loopback struct {
	mu        sync.Mutex
	listeners map[string]*loopbackListener
}

// NewLoopback returns an empty in-memory transport.
func NewLoopback() *Loopback {
	return &Loopback{listeners: make(map[string]*loopbackListener)}
}

func (l *Loopback) Name() string { return "loopback" }

// Listen binds addr. Re-binding a live address is an error, matching TCP.
func (l *Loopback) Listen(addr string) (Listener, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.listeners[addr]; dup {
		return nil, &Error{Op: "listen", Addr: addr, Err: errors.New("address in use")}
	}
	ln := &loopbackListener{
		owner:   l,
		addr:    addr,
		backlog: make(chan *pipeConn, 16),
		done:    make(chan struct{}),
	}
	l.listeners[addr] = ln
	return ln, nil
}

// Dial connects to a listening address; dialing an unbound address is a
// transient error (the peer may not be up yet), so DialRetry backs off
// exactly as it would for TCP ECONNREFUSED.
func (l *Loopback) Dial(addr string) (Conn, error) {
	l.mu.Lock()
	ln := l.listeners[addr]
	l.mu.Unlock()
	if ln == nil {
		return nil, &Error{Op: "dial", Addr: addr, Transient: true, Err: errLoopbackRefused}
	}
	client, server := net.Pipe()
	dialed := &pipeConn{Conn: client, local: "loopback:dialer", remote: addr}
	accepted := &pipeConn{Conn: server, local: ln.addr, remote: "loopback:dialer", peer: dialed}
	dialed.peer = accepted
	select {
	case ln.backlog <- accepted:
		return dialed, nil
	case <-ln.done:
		return nil, &Error{Op: "dial", Addr: addr, Transient: true, Err: errLoopbackRefused}
	}
}

type loopbackListener struct {
	owner   *Loopback
	addr    string
	backlog chan *pipeConn
	done    chan struct{}
	once    sync.Once
}

func (ln *loopbackListener) Accept() (Conn, error) {
	select {
	case c := <-ln.backlog:
		return c, nil
	case <-ln.done:
		return nil, &Error{Op: "accept", Addr: ln.addr, Err: errors.New("listener closed")}
	}
}

func (ln *loopbackListener) Close() error {
	ln.once.Do(func() {
		close(ln.done)
		ln.owner.mu.Lock()
		delete(ln.owner.listeners, ln.addr)
		ln.owner.mu.Unlock()
	})
	return nil
}

func (ln *loopbackListener) Addr() string { return ln.addr }

// pipeConn adapts a net.Conn (pipe or socket) to the string-address Conn.
type pipeConn struct {
	net.Conn
	local, remote string
	// peer is the other end of a loopback pipe, nil on a socket.
	peer *pipeConn
}

func (c *pipeConn) LocalAddr() string  { return c.local }
func (c *pipeConn) RemoteAddr() string { return c.remote }

// Close clears the deadlines of both ends of a loopback pipe, then closes
// this one: net.Pipe's Close leaves armed deadline timers running, each
// pinning its pipe until it fires, and an end whose peer has closed can no
// longer clear its own (nor needs them: its reads and writes fail at once).
func (c *pipeConn) Close() error {
	_ = c.Conn.SetDeadline(time.Time{}) // refused once an end has closed, whose Close cleared it
	if c.peer != nil {
		_ = c.peer.Conn.SetDeadline(time.Time{})
	}
	return c.Conn.Close()
}
