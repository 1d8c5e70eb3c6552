package session

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/spi"
	"repro/internal/transport"
)

// TestServerReapsAbandonedSession: a client opens a session and then goes
// silent forever. With SessionTimeout set the server must shed it — slot
// and quota released, the client told CloseShed — instead of leaking the
// session until process death.
func TestServerReapsAbandonedSession(t *testing.T) {
	h := startServe(t, transport.NewLoopback(), "reap", ServerConfig{
		SessionTimeout: 100 * time.Millisecond,
		Admission:      Admission{MaxSessions: 1},
	}, true)
	defer h.stop()

	s, err := h.client.Open("ghost")
	if err != nil {
		t.Fatal(err)
	}
	// While the ghost is still live, the snapshot reports its age.
	snap := waitSnapshot(t, h.srv, "the ghost session to appear", func(sn Snapshot) bool {
		return len(sn.Sessions) == 1
	})
	if got := snap.Sessions[0]; got.Tenant != "ghost" || got.AgeMS < 0 || got.IdleMS < 0 {
		t.Fatalf("session age row = %+v", got)
	}

	// Never run the client partition: pure silence. The reaper must fire.
	waitSnapshot(t, h.srv, "the abandoned session to be reaped", func(sn Snapshot) bool {
		return sn.Reaped >= 1
	})
	status, cerr := s.AwaitClose(10 * time.Second)
	if cerr != nil {
		t.Fatalf("awaiting the reaped session's close: %v", cerr)
	}
	if status != CloseShed {
		t.Fatalf("reaped session closed with status %d, want CloseShed (%d)", status, CloseShed)
	}
	h.client.Done(s)

	// The slot the ghost held (MaxSessions: 1) must be free again: a
	// fresh session is admitted and completes normally.
	ref := localReference(t, h.iters)
	sink, status, err := h.runSession("alice")
	if err != nil {
		t.Fatalf("post-reap session: %v", err)
	}
	if status != CloseDone {
		t.Fatalf("post-reap session closed with status %d", status)
	}
	if !samePayloads(ref, sink) {
		t.Fatal("post-reap session output diverged from reference")
	}
	// The client can observe CloseDone a beat before the server's
	// dispatcher books the completion, so poll rather than snapshot once.
	snap = waitSnapshot(t, h.srv, "the completion to be booked", func(sn Snapshot) bool {
		return sn.Completed == 1
	})
	if snap.Reaped != 1 {
		t.Errorf("snapshot reaped = %d, want 1", snap.Reaped)
	}
}

// TestServerReaperSparesActiveSessions: sessions that keep traffic moving
// must never be reaped, however long they live relative to the timeout.
func TestServerReaperSparesActiveSessions(t *testing.T) {
	h := startServe(t, transport.NewLoopback(), "reap-active", ServerConfig{
		// Iterations kept default (10); the timeout is far shorter than
		// the whole run but far longer than any inter-message gap.
		SessionTimeout: 250 * time.Millisecond,
	}, true)
	defer h.stop()

	ref := localReference(t, h.iters)
	for i := 0; i < 3; i++ {
		sink, status, err := h.runSession("steady")
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if status != CloseDone {
			t.Fatalf("session %d closed with status %d", i, status)
		}
		if !samePayloads(ref, sink) {
			t.Fatalf("session %d output diverged", i)
		}
	}
	if snap := h.srv.Snapshot(); snap.Reaped != 0 {
		t.Fatalf("reaper shed %d active sessions", snap.Reaped)
	}
}

// TestAwaitCloseDeadline: the deadline form of AwaitClose returns as soon
// as the deadline passes — it never inherits the long default timeout.
func TestAwaitCloseDeadline(t *testing.T) {
	h := startServe(t, transport.NewLoopback(), "deadline", ServerConfig{}, true)
	defer h.stop()

	s, err := h.client.Open("late")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	status, cerr := s.AwaitCloseDeadline(time.Now().Add(50 * time.Millisecond))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline wait took %v", elapsed)
	}
	if cerr == nil {
		t.Fatalf("deadline in the near past returned status %d with no error", status)
	}
	if status != CloseError {
		t.Errorf("expired wait returned status %d, want CloseError", status)
	}
	if !strings.Contains(cerr.Error(), "deadline") && !strings.Contains(cerr.Error(), "timed out") {
		t.Errorf("expired wait error %q does not mention the deadline", cerr)
	}
	h.client.Done(s)
}

// TestClientFailureReleasesServerHalf: a session run that fails on the
// client must not strand the server's half. The client's abortive finish
// FINs every edge it declared, so the server's actors unwind, the server
// CLOSEs with CloseError and books the failure — promptly, with no reaper
// configured to clean up after it.
func TestClientFailureReleasesServerHalf(t *testing.T) {
	h := startServe(t, transport.NewLoopback(), "client-fails", ServerConfig{}, true)
	defer h.stop()
	s, err := h.client.Open("alice")
	if err != nil {
		t.Fatal(err)
	}
	var sink [][]byte
	var mu sync.Mutex
	kernels := testKernels(&sink, &mu)
	a := kernels[0]
	kernels[0] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		if iter == 3 {
			return nil, errors.New("kernel A failed")
		}
		return a(iter, in)
	}
	g, m := testGraph()
	_, execErr := spi.ExecuteDistributed(g, m, kernels, h.iters, spi.DistOptions{
		Node: clientNode, Addrs: make([]string, 2), NodeOf: testNodeOf, Links: s,
	})
	if execErr == nil || !strings.Contains(execErr.Error(), "kernel A failed") {
		t.Fatalf("client run error = %v, want kernel A's failure", execErr)
	}
	status, cerr := s.AwaitClose(time.Second)
	h.client.Done(s)
	if cerr != nil || status != CloseError {
		t.Fatalf("close verdict %s, err %v; want %s within 1s", closeString(status), cerr, closeString(CloseError))
	}
	waitSnapshot(t, h.srv, "the failed session to be booked", func(sn Snapshot) bool {
		return sn.Failed == 1 && sn.Live == 0
	})
}
