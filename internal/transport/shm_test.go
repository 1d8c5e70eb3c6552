package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func shmPair(t *testing.T, s *Shm, addr string) (Conn, Conn) {
	t.Helper()
	ln, err := s.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	type res struct {
		c   Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dc, err := s.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { dc.Close(); r.c.Close() })
	return dc, r.c
}

// setShmRing dials the test's segments with rings of n bytes.
func setShmRing(t *testing.T, n uint32) {
	old := shmRingBytes
	shmRingBytes = n
	t.Cleanup(func() { shmRingBytes = old })
}

// TestShmConnStream pushes a pseudo-random byte stream many times the ring
// capacity through both directions concurrently and checks byte-exact,
// in-order delivery — the ring wrap, uneven chunking, and backpressure
// paths all on the line. Run with -race: the two endpoints are separate
// mappings whose only synchronization is the ring atomics.
func TestShmConnStream(t *testing.T) {
	s := NewShm(t.TempDir())
	setShmRing(t, shmMinRing) // force many wraps
	dc, ac := shmPair(t, s, "stream")

	const total = 64 * shmMinRing
	send := func(c Conn, seed int64, errCh chan<- error) {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 1+rng.Intn(3*shmMinRing))
		sent := 0
		for sent < total {
			n := len(buf)
			if n > total-sent {
				n = total - sent
			}
			rng.Read(buf[:n])
			if _, err := c.Write(buf[:n]); err != nil {
				errCh <- err
				return
			}
			sent += n
		}
		errCh <- nil
	}
	recv := func(c Conn, seed int64, errCh chan<- error) {
		// Rebuild the expected stream exactly as the sender generates it.
		rng := rand.New(rand.NewSource(seed))
		want := make([]byte, total)
		buf := make([]byte, 1+rng.Intn(3*shmMinRing))
		off := 0
		for off < total {
			n := len(buf)
			if n > total-off {
				n = total - off
			}
			rng.Read(buf[:n])
			copy(want[off:], buf[:n])
			off += n
		}
		got := make([]byte, total)
		if _, err := io.ReadFull(c, got); err != nil {
			errCh <- err
			return
		}
		if !bytes.Equal(got, want) {
			errCh <- errors.New("stream corrupted")
			return
		}
		errCh <- nil
	}
	errs := make(chan error, 4)
	go send(dc, 101, errs)
	go recv(ac, 101, errs)
	go send(ac, 202, errs)
	go recv(dc, 202, errs)
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestShmConnClose: close semantics mirror a socket — the peer drains
// buffered bytes then sees EOF; writes into a closed peer fail; operations
// on one's own closed conn fail immediately.
func TestShmConnClose(t *testing.T) {
	s := NewShm(t.TempDir())
	dc, ac := shmPair(t, s, "close")
	if _, err := dc.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	dc.Close()
	buf := make([]byte, 16)
	n, err := ac.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("drain after peer close: %q, %v", buf[:n], err)
	}
	if _, err := ac.Read(buf); err != io.EOF {
		t.Fatalf("read after drain = %v, want EOF", err)
	}
	if _, err := ac.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
	if _, err := dc.Read(buf); err == nil {
		t.Fatal("read on own closed conn succeeded")
	}
	if _, err := dc.Write([]byte("x")); err == nil {
		t.Fatal("write on own closed conn succeeded")
	}
	if err := dc.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestShmConnDeadlines: expired deadlines surface os.ErrDeadlineExceeded
// (a net.Error with Timeout() true — what the Link layer keys on), and
// clearing the deadline restores blocking I/O.
func TestShmConnDeadlines(t *testing.T) {
	s := NewShm(t.TempDir())
	setShmRing(t, shmMinRing)
	dc, ac := shmPair(t, s, "deadline")

	ac.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 8)
	_, err := ac.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past deadline = %v, want os.ErrDeadlineExceeded", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline error %v is not a net.Error timeout", err)
	}

	// Fill the ring so a write blocks, then let the write deadline fire.
	dc.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	junk := make([]byte, 2*shmMinRing)
	if _, err := dc.Write(junk); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past deadline = %v, want os.ErrDeadlineExceeded", err)
	}

	// Clear deadlines: the stalled directions complete once drained.
	dc.SetWriteDeadline(time.Time{})
	ac.SetReadDeadline(time.Time{})
	done := make(chan error, 1)
	go func() {
		_, err := dc.Write([]byte("hello"))
		done <- err
	}()
	drain := make([]byte, shmMinRing)
	deadline := time.Now().Add(5 * time.Second)
	got := 0
	for got < shmMinRing+5 { // ring fill + "hello"
		ac.SetReadDeadline(deadline)
		n, err := ac.Read(drain)
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		got += n
	}
	if err := <-done; err != nil {
		t.Fatalf("write after deadline cleared: %v", err)
	}
}

// TestShmDialRefusedAndRetry: no rendezvous directory is a transient
// refusal, and DialRetry rides out a late listener — the same startup-race
// contract as TCP ECONNREFUSED.
func TestShmDialRefusedAndRetry(t *testing.T) {
	s := NewShm(t.TempDir())
	_, err := s.Dial("ghost")
	if err == nil {
		t.Fatal("dialing an unbound shm address should fail")
	}
	if !IsTransient(err) {
		t.Fatalf("unbound shm dial should be transient, got %v", err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		ln, err := s.Listen("late")
		if err != nil {
			return
		}
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
		ln.Close()
	}()
	c, err := DialRetry(context.Background(), s, "late", RetryConfig{
		Attempts: 50, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial after listener came up: %v", err)
	}
	c.Close()
}

func TestShmAddressReuse(t *testing.T) {
	s := NewShm(t.TempDir())
	ln, err := s.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Listen("a"); err == nil {
		t.Fatal("double bind should fail")
	}
	ln.Close()
	ln2, err := s.Listen("a")
	if err != nil {
		t.Fatalf("rebinding a closed address: %v", err)
	}
	ln2.Close()
}

// TestShmAcceptRejectsCorruptSegment drops garbage into the rendezvous
// directory: Accept must discard it (and remove the file) and still accept
// the next well-formed segment.
func TestShmAcceptRejectsCorruptSegment(t *testing.T) {
	s := NewShm(t.TempDir())
	ln, err := s.Listen("robust")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	bad := s.dir("robust") + "/conn-0-garbage"
	if err := os.WriteFile(bad, []byte("not a segment"), 0o600); err != nil {
		t.Fatal(err)
	}
	type res struct {
		c   Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dc, err := s.Dial("robust")
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.c.Close()
	if _, err := os.Stat(bad); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt segment file was not removed")
	}
	if _, err := dc.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(r.c, buf); err != nil || string(buf) != "ok" {
		t.Fatalf("post-garbage conn broken: %q, %v", buf, err)
	}
}

// TestShmListenerCloseUnblocks: Close unblocks a pending Accept and turns
// waiting dialers away with a transient refusal.
func TestShmListenerCloseUnblocks(t *testing.T) {
	s := NewShm(t.TempDir())
	ln, err := s.Listen("bye")
	if err != nil {
		t.Fatal(err)
	}
	acceptErr := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		acceptErr <- err
	}()
	time.Sleep(5 * time.Millisecond)
	ln.Close()
	select {
	case err := <-acceptErr:
		if err == nil {
			t.Fatal("accept on closed listener succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accept did not unblock on close")
	}
	if _, err := s.Dial("bye"); err == nil || !IsTransient(err) {
		t.Fatalf("dial after close = %v, want transient refusal", err)
	}
}

// TestShmChaosSeverResume runs the Link RESUME protocol over severed shm
// connections: each re-dial attaches a fresh segment, and the replayed
// frame suffix must deliver every message exactly once, in order.
func TestShmChaosSeverResume(t *testing.T) {
	ft := NewFaultTransport(NewShm(t.TempDir()), FaultConfig{
		Seed: 7, SeverAt: []int{11, 37, 80}, SkipFrames: 4,
	})
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor, stop := chaosLinkPair(t, ft, hd, ha)
	defer stop()
	const n = 200
	for i := 0; i < n; i++ {
		msg := make([]byte, 10)
		msg[0] = 7
		binary.LittleEndian.PutUint32(msg[2:], 4)
		binary.LittleEndian.PutUint32(msg[6:], uint32(i))
		if err := dialer.SendData(7, msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	got := ha.waitData(t, 7, n)
	for i, msg := range got {
		if payload := binary.LittleEndian.Uint32(msg[6:]); payload != uint32(i) {
			t.Fatalf("message %d carries payload %d (lost or reordered across resume)", i, payload)
		}
	}
	closeBoth(dialer, acceptor)
	if st := ft.Stats(); st.Severs == 0 {
		t.Fatal("no sever landed; schedule is inert")
	}
	if st := dialer.Stats(); st.Resumes == 0 {
		t.Fatal("no RESUME ran; the reattached-segment path went untested")
	}
}

// TestSameHostSelectsShm: the composite transport takes the shared-memory
// path for a local address and falls back to the network when the peer
// has no shm rendezvous (e.g. it listens with plain TCP).
func TestSameHostSelectsShm(t *testing.T) {
	sh := &SameHost{Shm: NewShm(t.TempDir())}
	ln, err := sh.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   Conn
		err error
	}
	ch := make(chan res, 2)
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		defer pump.Done()
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dc, err := sh.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if !strings.HasPrefix(dc.RemoteAddr(), "shm:") {
		t.Fatalf("same-host dial took %q, want the shm path", dc.RemoteAddr())
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.c.Close()
	if _, err := dc.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(r.c, buf); err != nil || string(buf) != "hi" {
		t.Fatalf("same-host shm conn broken: %q, %v", buf, err)
	}
	pump.Wait()
}

func TestSameHostFallsBackToTCP(t *testing.T) {
	// The peer listens with plain TCP — no shm rendezvous exists, so the
	// composite dialer must fall back.
	tcp := &TCP{}
	ln, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
	}()
	sh := &SameHost{Shm: NewShm(t.TempDir())}
	c, err := sh.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if strings.HasPrefix(c.RemoteAddr(), "shm:") {
		t.Fatalf("fallback dial took the shm path to %q", c.RemoteAddr())
	}
}

// FuzzDecodeShmHeader: the header codec must never panic on arbitrary
// bytes, and any input it accepts must re-encode to exactly the bytes it
// decoded — the codec admits no non-canonical encodings a hostile segment
// could smuggle state through.
func FuzzDecodeShmHeader(f *testing.F) {
	f.Add(EncodeShmHeader(ShmHeader{Version: shmVersion, RingCap: 1 << 20, SegSize: shmDataOff + 2<<20}))
	f.Add(EncodeShmHeader(ShmHeader{Version: shmVersion, RingCap: shmMinRing, SegSize: shmDataOff + 2*shmMinRing}))
	f.Add(make([]byte, ShmHeaderSize))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := DecodeShmHeader(b)
		if err != nil {
			return
		}
		if h.Version != shmVersion {
			t.Fatalf("accepted version %d", h.Version)
		}
		if h.RingCap < shmMinRing || h.RingCap > shmMaxRing || h.RingCap&(h.RingCap-1) != 0 {
			t.Fatalf("accepted ring capacity %d", h.RingCap)
		}
		if h.SegSize != shmDataOff+2*uint64(h.RingCap) {
			t.Fatalf("accepted segment size %d for ring %d", h.SegSize, h.RingCap)
		}
		if !bytes.Equal(EncodeShmHeader(h), b[:ShmHeaderSize]) {
			t.Fatal("decode accepted a non-canonical encoding")
		}
	})
}
