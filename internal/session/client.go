package session

import (
	"errors"
	"fmt"
	"time"
)

// OpenError is a rejection verdict from the server's admission control.
type OpenError struct {
	Status byte
}

func (e *OpenError) Error() string {
	return fmt.Sprintf("session: open %s", StatusString(e.Status))
}

// Client opens sessions toward one peer over a bound mux.
type Client struct {
	mux     *Mux
	timeout time.Duration
}

// NewClient wraps a bound mux. timeout bounds each Open's wait for the
// server's verdict (0 = 30s).
func NewClient(m *Mux, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Client{mux: m, timeout: timeout}
}

// Open requests one session and waits for the admission verdict.
func (c *Client) Open(tenant string) (*Stream, error) {
	l := c.mux.Link()
	s := c.mux.NewStream(l.PeerNode())
	if err := l.SendSessionOpen(s.SID(), tenant); err != nil {
		c.mux.Release(s)
		return nil, err
	}
	t := time.NewTimer(c.timeout)
	defer t.Stop()
	select {
	case status := <-s.openCh:
		if status != StatusAdmitted {
			c.mux.Release(s)
			return nil, &OpenError{Status: status}
		}
		return s, nil
	case <-s.done:
		c.mux.Release(s)
		return nil, fmt.Errorf("session: link closed while opening: %w", s.linkError())
	case <-t.C:
		c.mux.Release(s)
		return nil, errors.New("session: open timed out")
	}
}

// AwaitClose blocks until the server closes the session and returns its
// verdict (CloseDone/CloseShed/CloseError). The server sends CLOSE only
// after its side of the run finished, so a CloseDone here means the full
// session completed end to end.
func (s *Stream) AwaitClose(timeout time.Duration) (byte, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case status := <-s.closeCh:
		return status, nil
	case <-s.done:
		// A shed/error CLOSE both posts the verdict and closes the
		// stream; prefer the verdict when it raced in first.
		select {
		case status := <-s.closeCh:
			return status, nil
		default:
		}
		return CloseError, fmt.Errorf("session: link closed before close verdict: %w", s.linkError())
	case <-t.C:
		return CloseError, errors.New("session: timed out waiting for close verdict")
	}
}

// AwaitCloseDeadline is AwaitClose against an absolute deadline, for
// callers threading one time budget through several waits. A deadline at
// or before now fails immediately; a zero deadline means the default
// AwaitClose timeout.
func (s *Stream) AwaitCloseDeadline(deadline time.Time) (byte, error) {
	if deadline.IsZero() {
		return s.AwaitClose(0)
	}
	d := time.Until(deadline)
	if d <= 0 {
		return CloseError, errors.New("session: close deadline exceeded")
	}
	return s.AwaitClose(d)
}

// Done releases the client-side stream after the session ended.
func (c *Client) Done(s *Stream) {
	c.mux.Release(s)
}
