package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/session"
	"repro/internal/spi"
	"repro/internal/transport"
)

// serveClient dials a spinode -serve instance as client node `node` of the
// test pipeline, the server being the other one. As node 1 (the server
// hosts src on node 0) the client owns mid and sink, so it holds the digest
// and can verify bit-exactness locally; as node 0 it owns src, and the
// server's half of a session cannot finish before the client runs its own.
func serveClient(t *testing.T, tr transport.Transport, addr string, node int) (*session.Client, *transport.Link) {
	t.Helper()
	cfg := pipelineNode(parseTestGraph(t), 0, nil, spi.DistOptions{})
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	decls, err := spi.PeerDecls(sys.Graph, sys.Mapping, sys.NodeOf, node, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.DialRetry(context.Background(), tr, addr,
		transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mux := session.NewMux(nil)
	l, err := transport.NewLink(conn, transport.LinkConfig{
		Node: node, Edges: decls[1-node], Sessions: true,
	}, mux)
	if err != nil {
		t.Fatal(err)
	}
	mux.Bind(l)
	return session.NewClient(mux, 10*time.Second), l
}

// runServeSession drives one session end to end from the client side and
// returns the sink digest line in runNode's format.
func runServeSession(t *testing.T, client *session.Client, node int, tenant string, iters int) string {
	t.Helper()
	s, err := client.Open(tenant)
	if err != nil {
		t.Fatal(err)
	}
	return finishServeSession(t, client, node, s, tenant, iters)
}

// finishServeSession runs the client half of an already-open session to
// its close.
func finishServeSession(t *testing.T, client *session.Client, node int, s *session.Stream, tenant string, iters int) string {
	t.Helper()
	cfg := pipelineNode(parseTestGraph(t), iters, nil, spi.DistOptions{})
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	ks, digests, err := sys.Kernels()
	if err != nil {
		t.Fatal(err)
	}
	_, execErr := spi.ExecuteDistributed(sys.Graph, sys.Mapping, ks, iters, spi.DistOptions{
		Node: node, Addrs: make([]string, 2), NodeOf: sys.NodeOf, Links: s,
	})
	status, cerr := s.AwaitClose(20 * time.Second)
	client.Done(s)
	if execErr != nil {
		t.Fatalf("session %s: %v", tenant, execErr)
	}
	if cerr != nil || status != session.CloseDone {
		t.Fatalf("session %s: status %s, err %v", tenant, session.StatusString(status), cerr)
	}
	return fmt.Sprintf("digest sink %016x", *digests["sink"])
}

// TestServeSessionsMatchSingle runs spinode in -serve mode and drives
// concurrent client sessions against it: every session's sink digest
// must be bit-identical to the single-node run, and /healthz must report
// the session counts (satellite: live/admitted/rejected/degraded).
func TestServeSessionsMatchSingle(t *testing.T) {
	const iters = 12
	want := singleNodeDigests(t, parseTestGraph(t), iters)

	tr := &transport.TCP{}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	scfg := pipelineNode(parseTestGraph(t), iters, []int{0, 1},
		spi.DistOptions{Transport: tr, Listener: ln, Addrs: []string{ln.Addr(), "unused"}})
	scfg.HTTPAddr = "127.0.0.1:0"
	scfg.Server.Admission.MaxSessions = 16
	var out lockedBuffer
	stop := make(chan struct{})
	serveErr := make(chan error, 1)
	go func() { serveErr <- runServe(scfg, &out, stop) }()

	client, link := serveClient(t, tr, ln.Addr(), 1)
	defer link.Abort()

	const sessions = 3
	got := make([]string, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = runServeSession(t, client, 1, fmt.Sprintf("tenant-%d", i%2), iters)
		}(i)
	}
	wg.Wait()
	for i, d := range got {
		if d != want[0] {
			t.Errorf("session %d digest %q != single-node %q", i, d, want[0])
		}
	}

	// The serve log names the live observability endpoint; poll /healthz
	// until the server has retired all three sessions.
	httpAddr := ""
	deadline := time.Now().Add(5 * time.Second)
	for httpAddr == "" && time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "observability: http://"); ok {
				httpAddr = rest[:strings.Index(rest, "/")]
			}
		}
		time.Sleep(time.Millisecond)
	}
	if httpAddr == "" {
		t.Fatalf("no observability line in serve output:\n%s", out.String())
	}
	var health map[string]any
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + httpAddr + "/healthz")
		if err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if s, ok := health["sessions"].(map[string]any); ok &&
			s["sessions_live"] == float64(0) && s["sessions_admitted"] == float64(sessions) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s, ok := health["sessions"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no sessions block: %v", health)
	}
	for key, wantV := range map[string]float64{
		"sessions_live":      0,
		"sessions_degraded":  0,
		"sessions_admitted":  sessions,
		"sessions_rejected":  0,
		"sessions_completed": sessions,
	} {
		if s[key] != wantV {
			t.Errorf("healthz %s = %v, want %v (full: %v)", key, s[key], wantV, s)
		}
	}

	close(stop)
	if err := <-serveErr; err != nil {
		t.Fatalf("runServe: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), fmt.Sprintf("served %d sessions (%d completed", sessions, sessions)) {
		t.Errorf("serve summary missing:\n%s", out.String())
	}
}

// TestServeAdmissionCaps exercises -max-sessions and -tenant-quota
// through runServe: over-quota opens are rejected with the right status.
func TestServeAdmissionCaps(t *testing.T) {
	tr := transport.NewLoopback()
	ln, err := tr.Listen("serve-caps")
	if err != nil {
		t.Fatal(err)
	}
	// The server is node 1 (mid and sink), so a session stays live on it
	// until the client has run src: an open session really is held. Serving
	// src instead, its half finishes and frees the quota on its own.
	scfg := pipelineNode(parseTestGraph(t), 6, []int{0, 1},
		spi.DistOptions{Transport: tr, Listener: ln, Node: 1, Addrs: []string{"unused", ln.Addr()}})
	scfg.Server.Admission = session.Admission{MaxSessions: 8, TenantQuota: 1}
	var out lockedBuffer
	stop := make(chan struct{})
	serveErr := make(chan error, 1)
	go func() { serveErr <- runServe(scfg, &out, stop) }()

	client, link := serveClient(t, tr, ln.Addr(), 0)
	defer link.Abort()

	// Hold one session open (don't run it yet), then a second open from
	// the same tenant must bounce off the quota.
	s1, err := client.Open("solo")
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Open("solo")
	var oe *session.OpenError
	if !errors.As(err, &oe) || oe.Status != session.StatusRejectedQuota {
		t.Fatalf("second open: err = %v, want quota rejection", err)
	}
	// A different tenant still fits.
	runServeSession(t, client, 0, "other", 6)
	// Finish the held session so the server drains cleanly.
	finishServeSession(t, client, 0, s1, "solo", 6)

	close(stop)
	if err := <-serveErr; err != nil {
		t.Fatalf("runServe: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1 rejected") {
		t.Errorf("serve summary should count the quota rejection:\n%s", out.String())
	}
}

func TestParseWeights(t *testing.T) {
	w, err := parseWeights("alice=3, bob=1")
	if err != nil || w["alice"] != 3 || w["bob"] != 1 {
		t.Fatalf("parseWeights = %v, %v", w, err)
	}
	if w, err := parseWeights(""); err != nil || w != nil {
		t.Fatalf("empty spec = %v, %v", w, err)
	}
	for _, bad := range []string{"alice", "alice=", "alice=0", "alice=-1", "=3"} {
		if _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights(%q) should fail", bad)
		}
	}
}

// lockedBuffer is a bytes.Buffer safe for the concurrent writes runServe
// makes from its accept goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (lb *lockedBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Write(p)
}

func (lb *lockedBuffer) String() string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.String()
}
