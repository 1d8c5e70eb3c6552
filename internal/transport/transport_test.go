package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestDialRetryRefusedThenUp(t *testing.T) {
	tr := NewLoopback()
	// Nothing listening: all attempts burn, the last error is transient.
	start := time.Now()
	_, err := DialRetry(context.Background(), tr, "ghost", RetryConfig{
		Attempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 8 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dialing an unbound address should fail")
	}
	if !IsTransient(err) {
		t.Fatalf("refused connect should be transient, got %v", err)
	}
	// 3 sleeps of 2+4+8 ms: backoff actually waited.
	if d := time.Since(start); d < 14*time.Millisecond {
		t.Fatalf("retries returned after %v, backoff did not wait", d)
	}

	// Listener comes up mid-retry: DialRetry must succeed.
	go func() {
		time.Sleep(10 * time.Millisecond)
		ln, err := tr.Listen("late")
		if err != nil {
			return
		}
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.Close()
		ln.Close()
	}()
	c, err := DialRetry(context.Background(), tr, "late", RetryConfig{
		Attempts: 50, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial after listener came up: %v", err)
	}
	c.Close()
}

func TestDialRetryTCPRefused(t *testing.T) {
	tr := &TCP{}
	// Bind and release a port so the address is valid but refused.
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	ln.Close()
	attempts := 3
	start := time.Now()
	_, err = DialRetry(context.Background(), tr, addr, RetryConfig{
		Attempts: attempts, BaseDelay: 2 * time.Millisecond, MaxDelay: 4 * time.Millisecond,
	})
	if err == nil {
		t.Skip("something else is listening on the released port")
	}
	if !IsTransient(err) {
		t.Fatalf("TCP refused connect should be transient, got %v", err)
	}
	if d := time.Since(start); d < 6*time.Millisecond {
		t.Fatalf("retries returned after %v, backoff did not wait", d)
	}
}

func TestDialFatalErrorNotRetried(t *testing.T) {
	tr := &TCP{}
	var attempts atomic.Int64
	counted := countingTransport{Transport: tr, dials: &attempts}
	_, err := DialRetry(context.Background(), counted, "not-an-address", RetryConfig{
		Attempts: 5, BaseDelay: time.Millisecond,
	})
	if err == nil {
		t.Fatal("malformed address should fail")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("fatal dial error retried %d times", got)
	}
}

type countingTransport struct {
	Transport
	dials *atomic.Int64
}

func (c countingTransport) Dial(addr string) (Conn, error) {
	c.dials.Add(1)
	return c.Transport.Dial(addr)
}

func TestLoopbackAddressReuse(t *testing.T) {
	tr := NewLoopback()
	ln, err := tr.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("a"); err == nil {
		t.Fatal("double bind should fail")
	}
	ln.Close()
	ln2, err := tr.Listen("a")
	if err != nil {
		t.Fatalf("rebinding a closed address: %v", err)
	}
	ln2.Close()
}

// TestLoopbackCloseReleasesPipe: a closed loopback connection must not
// outlive its last reference by its deadlines. net.Pipe's Close leaves armed
// deadline timers running, and each pins its pipe until it fires; here an
// hour out, on both ends, which close one after the other.
func TestLoopbackCloseReleasesPipe(t *testing.T) {
	tr := NewLoopback()
	ln, err := tr.Listen("gc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	freed := make(chan struct{}, 2)
	func() {
		dialed, err := tr.Dial("gc")
		if err != nil {
			t.Fatal(err)
		}
		accepted, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		hour := time.Now().Add(time.Hour)
		for _, c := range []Conn{dialed, accepted} {
			if err := c.SetReadDeadline(hour); err != nil {
				t.Fatal(err)
			}
			if err := c.SetWriteDeadline(hour); err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(c.(*pipeConn).Conn, func(any) { freed <- struct{}{} })
		}
		dialed.Close()
		accepted.Close()
	}()
	for got, gcs := 0, 0; got < 2; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(20 * time.Millisecond):
			if gcs++; gcs == 10 {
				t.Fatalf("%d of 2 closed pipes still reachable after %d collections", 2-got, gcs)
			}
		}
	}
}

// TestShutdownLeaksNoGoroutines drives a full link round trip on both
// transports and verifies every reader/acceptor goroutine is reaped.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for name, tr := range transports(t) {
		hd, ha := newRecordingHandler(), newRecordingHandler()
		dialer, acceptor := linkPair(t, tr, testAddr(name), hd, ha)
		msg := []byte{7, 0, 1, 0, 0, 0, 9}
		if err := dialer.SendData(7, msg); err != nil {
			t.Fatal(err)
		}
		ha.waitData(t, 7, 1)
		done := make(chan struct{})
		go func() { acceptor.Close(); close(done) }()
		dialer.Close()
		<-done
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: before %d, after %d\n%s",
		before, runtime.NumGoroutine(), truncateStack(string(buf[:n])))
}

func truncateStack(s string) string {
	const max = 4000
	if len(s) > max {
		return s[:max] + "\n...truncated..."
	}
	return s
}

func TestFrameRoundTrip(t *testing.T) {
	var buf strings.Builder
	body := []byte{1, 2, 3, 4, 5}
	if err := writeFrame(&buf, frameData, 42, body); err != nil {
		t.Fatal(err)
	}
	typ, seq, got, err := readFrame(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameData || seq != 42 || string(got) != string(body) {
		t.Fatalf("round trip: type %d seq %d body %x", typ, seq, got)
	}
	// Oversized length field is rejected, not allocated.
	huge := string([]byte{0xff, 0xff, 0xff, 0x7f, frameData})
	if _, _, _, err := readFrame(strings.NewReader(huge)); err == nil {
		t.Fatal("oversized frame should be rejected")
	}
	// Any single flipped byte fails the frame CRC.
	raw := []byte(buf.String())
	for i := 4; i < len(raw); i++ {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x01
		if _, _, _, err := readFrame(strings.NewReader(string(bad))); err == nil {
			t.Fatalf("corrupted byte %d should fail the CRC", i)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	edges := testManifest(true)
	edges[0].noAck = true
	node, token, got, blocked, err := decodeHello(encodeHello(42, 0xfeedface, edges, true))
	if err != nil {
		t.Fatal(err)
	}
	if node != 42 || token != 0xfeedface || !blocked || len(got) != len(edges) {
		t.Fatalf("decoded node %d token %#x blocked %v, %d edges", node, token, blocked, len(got))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d: %+v != %+v", i, got[i], edges[i])
		}
	}
	// Truncated and corrupted hellos fail cleanly.
	raw := encodeHello(1, 7, edges, false)
	for cut := 0; cut < len(raw); cut++ {
		if _, _, _, _, err := decodeHello(raw[:cut]); err == nil {
			t.Fatalf("hello truncated to %d bytes should fail", cut)
		}
	}
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, _, _, _, err := decodeHello(bad); err == nil {
		t.Fatal("corrupted magic should fail")
	}
}

// TestDialRetryCancelledContext checks cancellation interrupts the backoff
// sleeps instead of waiting out the whole retry ladder.
func TestDialRetryCancelledContext(t *testing.T) {
	tr := NewLoopback()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := DialRetry(ctx, tr, "ghost", RetryConfig{
		Attempts: 1000, BaseDelay: 50 * time.Millisecond, MaxDelay: 50 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("cancelled dial should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancellation took %v, backoff was not interrupted", d)
	}
}

// TestResumeFrameRoundTrips covers the control-frame codecs.
func TestResumeFrameRoundTrips(t *testing.T) {
	node, token, recv, err := decodeResume(encodeResume(3, 0xdeadbeef, 99))
	if err != nil || node != 3 || token != 0xdeadbeef || recv != 99 {
		t.Fatalf("resume round trip: %d %#x %d %v", node, token, recv, err)
	}
	if _, _, _, err := decodeResume(encodeResume(3, 1, 2)[:10]); err == nil {
		t.Fatal("truncated resume should fail")
	}
	var seq [cumAckBodyBytes]byte // CUMACK and RESUMEOK senders build this body on the stack
	binary.LittleEndian.PutUint64(seq[:], 12)
	if n, err := decodeResumeOK(seq[:]); err != nil || n != 12 {
		t.Fatalf("resume-ok round trip: %d %v", n, err)
	}
	if n, err := decodeCumAck(seq[:]); err != nil || n != 12 {
		t.Fatalf("cumack round trip: %d %v", n, err)
	}
	var fin [finBodyBytes]byte
	putFin(&fin, 5, 9)
	if tag, e, err := decodeFin(fin[:]); err != nil || tag != 5 || e != 9 {
		t.Fatalf("fin round trip: tag %d edge %d %v", tag, e, err)
	}
	var ack [ackBodyBytes]byte
	putAck(&ack, 5, 9, 3)
	if tag, e, n, err := decodeAck(ack[:]); err != nil || tag != 5 || e != 9 || n != 3 {
		t.Fatalf("ack round trip: tag %d edge %d count %d %v", tag, e, n, err)
	}
}
