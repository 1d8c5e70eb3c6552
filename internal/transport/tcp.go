package transport

import (
	"net"
	"time"
)

// TCP is the production transport: one TCP connection per PE-group pair,
// TCP_NODELAY enabled so the small SPI headers are not batched behind
// Nagle's algorithm (signal-processing traffic is latency-sensitive and
// already coalesced into block transfers by the dataflow granularity).
type TCP struct{}

// tcpDialTimeout bounds one connect attempt.
const tcpDialTimeout = 3 * time.Second

func (t *TCP) Name() string { return "tcp" }

func (t *TCP) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, &Error{Op: "listen", Addr: addr, Err: err}
	}
	return &tcpListener{ln: ln}, nil
}

func (t *TCP) Dial(addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, tcpDialTimeout)
	if err != nil {
		return nil, &Error{Op: "dial", Addr: addr, Transient: dialTransient(err), Err: err}
	}
	return wrapTCP(c), nil
}

type tcpListener struct{ ln net.Listener }

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, &Error{Op: "accept", Addr: l.ln.Addr().String(), Err: err}
	}
	return wrapTCP(c), nil
}

func (l *tcpListener) Close() error { return l.ln.Close() }
func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

func wrapTCP(c net.Conn) Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &pipeConn{Conn: c, local: c.LocalAddr().String(), remote: c.RemoteAddr().String()}
}

// SameHost, Shm and NewShm are kept until a `benchmark` PR stops naming
// them (bench/lpc.go). The shared-memory carrier they selected is gone:
// SameHost is TCP, and Shm configures nothing.
type SameHost struct {
	TCP
	Shm *Shm
}

type Shm struct{}

func NewShm(string) *Shm { return &Shm{} }
