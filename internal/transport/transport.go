// Package transport gives SPI a real byte transport: the paper's wire
// formats (SPI_static 2-byte headers, SPI_dynamic 6-byte headers) were
// designed to beat generic MPI framing on physical links, and this package
// is where they finally meet one. It provides a pluggable Transport
// abstraction (Dial/Listen/Conn) with two implementations — an in-memory
// loopback for tests and benchmarks, and TCP for multi-process execution —
// plus the Link session layer that multiplexes all SPI edges between one
// pair of processing-element groups over a single connection.
//
// The stack is deliberately layered like the software SPI library itself:
//
//	Conn      raw ordered byte stream with deadlines (loopback, TCP)
//	frame     length-delimited frames: HELLO / DATA / ACK / GOODBYE
//	Link      handshake (node identity + edge manifest), per-edge
//	          multiplexing, send timeouts, graceful close
//
// Package spi binds Runtime edges onto a Link (see spi.BindRemoteSender /
// spi.BindRemoteReceiver): DATA frames carry SPI-encoded messages
// unchanged, and ACK frames carry the BBS credits / UBS acknowledgements
// that the in-process runtime exchanged through shared memory.
package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"
)

// Conn is an ordered, reliable byte stream between two endpoints. Both the
// loopback and TCP transports satisfy it; Link runs on top of it.
type Conn interface {
	io.ReadWriteCloser
	// SetReadDeadline and SetWriteDeadline bound individual I/O calls;
	// the zero time clears the deadline.
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
	// LocalAddr and RemoteAddr describe the endpoints for diagnostics.
	LocalAddr() string
	RemoteAddr() string
}

// Listener accepts inbound connections on one address.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the bound address — for TCP with port 0 it carries the
	// kernel-assigned port, which peers need for dialing.
	Addr() string
}

// Transport creates connections. Implementations must be safe for
// concurrent use.
type Transport interface {
	// Name identifies the transport ("loopback", "tcp") in flags and logs.
	Name() string
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// Error is the typed error for transport operations. Transient errors
// (connection refused, timeouts) are worth retrying; fatal ones (protocol
// mismatch, closed link) are not.
type Error struct {
	Op        string // "dial", "listen", "send", "recv", "handshake"
	Addr      string
	Transient bool
	Err       error
}

func (e *Error) Error() string {
	kind := "fatal"
	if e.Transient {
		kind = "transient"
	}
	if e.Addr != "" {
		return fmt.Sprintf("transport: %s %s: %s: %v", e.Op, e.Addr, kind, e.Err)
	}
	return fmt.Sprintf("transport: %s: %s: %v", e.Op, kind, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Timeout reports whether the underlying cause was an I/O timeout, so
// Error satisfies the net.Error convention.
func (e *Error) Timeout() bool {
	var ne net.Error
	return errors.As(e.Err, &ne) && ne.Timeout()
}

// IsTransient reports whether err is a transport error worth retrying:
// refused or timed-out connects, send timeouts. Handshake and protocol
// failures are fatal.
func IsTransient(err error) bool {
	var te *Error
	if errors.As(err, &te) {
		return te.Transient
	}
	return false
}

// ErrLinkClosed is returned by sends on a closed Link.
var ErrLinkClosed = errors.New("transport: link closed")

// dialTransient classifies a raw dial error: anything that can heal on its
// own (listener not up yet, timeout) is transient; malformed addresses are
// not.
func dialTransient(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	// Refused connections and loopback's "no listener" both mean the peer
	// has not bound its address yet — the normal startup race retries fix.
	return errors.Is(err, errLoopbackRefused) ||
		errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.ECONNABORTED)
}

// RetryConfig bounds DialRetry's exponential backoff.
type RetryConfig struct {
	// Attempts is the maximum number of dials (including the first).
	// Zero means DefaultRetry.Attempts.
	Attempts int
	// BaseDelay is the sleep after the first failure; each further
	// failure doubles it up to MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// DefaultRetry is tuned for process startup races: ~12 attempts spanning a
// few seconds.
var DefaultRetry = RetryConfig{
	Attempts:  12,
	BaseDelay: 10 * time.Millisecond,
	MaxDelay:  500 * time.Millisecond,
}

// backoff is the delay after one that slept d: doubled, capped at limit.
func backoff(d, limit time.Duration) time.Duration {
	return min(2*d, limit)
}

func (rc RetryConfig) withDefaults() RetryConfig {
	d := DefaultRetry
	if rc.Attempts > 0 {
		d.Attempts = rc.Attempts
	}
	if rc.BaseDelay > 0 {
		d.BaseDelay = rc.BaseDelay
	}
	if rc.MaxDelay > 0 {
		d.MaxDelay = rc.MaxDelay
	}
	return d
}

// DialRetry dials addr, retrying transient failures with exponential
// backoff. It returns the first fatal error immediately and the last
// transient error once attempts are exhausted. Cancelling ctx interrupts
// the backoff sleeps and returns ctx.Err() wrapped in a transport Error.
func DialRetry(ctx context.Context, t Transport, addr string, rc RetryConfig) (Conn, error) {
	rc = rc.withDefaults()
	delay := rc.BaseDelay
	var lastErr error
	for attempt := 0; attempt < rc.Attempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, delay); err != nil {
				return nil, &Error{Op: "dial", Addr: addr, Err: err}
			}
			delay = backoff(delay, rc.MaxDelay)
		}
		if err := ctx.Err(); err != nil {
			return nil, &Error{Op: "dial", Addr: addr, Err: err}
		}
		c, err := t.Dial(addr)
		if err == nil {
			return c, nil
		}
		if !IsTransient(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ReconnectConfig is a Link's reconnect policy after its connection dies
// mid-session. The zero value disables reconnection entirely — the link
// fails fast exactly as it did before session resumption existed. With
// Attempts > 0 the surviving side re-dials (or, on the accepting side,
// waits for the peer's re-dial) and replays the unacknowledged frame
// suffix via the RESUME handshake.
type ReconnectConfig struct {
	// Attempts is the maximum number of re-dials per outage; 0 disables
	// reconnection.
	Attempts int
	// BaseDelay is the sleep before the first re-dial; each failure
	// doubles it up to MaxDelay. Defaults mirror DefaultRetry when
	// Attempts > 0.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Deadline bounds one whole outage (all attempts plus handshakes).
	// Zero means 30s when reconnection is enabled.
	Deadline time.Duration
}

// Enabled reports whether the policy allows any reconnection at all.
func (rc ReconnectConfig) Enabled() bool { return rc.Attempts > 0 }

func (rc ReconnectConfig) withDefaults() ReconnectConfig {
	if !rc.Enabled() {
		return rc
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = DefaultRetry.BaseDelay
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = DefaultRetry.MaxDelay
	}
	if rc.Deadline <= 0 {
		rc.Deadline = 30 * time.Second
	}
	return rc
}
