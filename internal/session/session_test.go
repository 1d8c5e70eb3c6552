package session

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/transport"
)

const (
	clientNode = 0
	serverNode = 1
)

var testNodeOf = []int{0, 1}

// testGraph is the two-node test graph: A --ab(static, delayed)--> B
// --bc(dynamic)--> C, with A and C on the client node and B on the
// server node, so both edges cross the shared link.
func testGraph() (*dataflow.Graph, *sched.Mapping) { return delayedGraph(1) }

// delayedGraph is testGraph with the given number of iterations of delay on
// ab.
func delayedGraph(delay int) (*dataflow.Graph, *sched.Mapping) {
	g := dataflow.New("sess")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	g.AddEdge("ab", a, b, 8, 8, dataflow.EdgeSpec{TokenBytes: 1, Delay: 8 * delay})
	g.AddEdge("bc", b, c, 8, 8, dataflow.EdgeSpec{TokenBytes: 1, ProduceDynamic: true, ConsumeDynamic: true})
	m := &sched.Mapping{
		NumProcs: 2,
		Proc:     []sched.Processor{0, 1, 0},
		Order:    [][]dataflow.ActorID{{a, c}, {b}},
	}
	return g, m
}

// testKernels is deterministic in (iter, inputs); C collects every
// payload it sees into sink.
func testKernels(sink *[][]byte, mu *sync.Mutex) map[dataflow.ActorID]spi.Kernel {
	return map[dataflow.ActorID]spi.Kernel{
		0: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			out := make([]byte, 8)
			for i := range out {
				out[i] = byte(iter*13 + i)
			}
			return map[dataflow.EdgeID][]byte{0: out}, nil
		},
		1: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			n := iter%8 + 1
			out := make([]byte, n)
			var sum byte
			for _, v := range in[0] {
				sum += v
			}
			for i := range out {
				out[i] = sum + byte(i)
			}
			return map[dataflow.EdgeID][]byte{1: out}, nil
		},
		2: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			cp := make([]byte, len(in[1]))
			copy(cp, in[1])
			mu.Lock()
			*sink = append(*sink, cp)
			mu.Unlock()
			return nil, nil
		},
	}
}

func defaultServerKernels(sid uint32, tenant string) map[dataflow.ActorID]spi.Kernel {
	var sink [][]byte
	var mu sync.Mutex
	return testKernels(&sink, &mu)
}

// localReference runs the graph single-process: the bit-exactness
// baseline every session must reproduce.
func localReference(t *testing.T, iters int) [][]byte {
	t.Helper()
	return reference(t, iters, 1)
}

func reference(t *testing.T, iters, delay int) [][]byte {
	t.Helper()
	g, m := delayedGraph(delay)
	var sink [][]byte
	var mu sync.Mutex
	if _, err := spi.Execute(g, m, testKernels(&sink, &mu), iters); err != nil {
		t.Fatal(err)
	}
	return sink
}

func samePayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// harness is one serving node and one client node sharing a single link.
type harness struct {
	t      *testing.T
	srv    *Server
	client *Client
	iters  int
	block  int
	// g and m are the graph the client half runs; nil is testGraph.
	g *dataflow.Graph
	m *sched.Mapping

	dialer   *transport.Link
	acceptor *transport.Link
	ln       transport.Listener
}

// startServe wires a server and a client over one link. clientSessions is
// the dialer's LinkConfig.Sessions: an assertion about its handler that
// the server never sees.
func startServe(t *testing.T, tr transport.Transport, addr string, cfg ServerConfig, clientSessions bool) *harness {
	t.Helper()
	if cfg.Graph == nil {
		cfg.Graph, cfg.Mapping = testGraph()
	}
	g, m := cfg.Graph, cfg.Mapping
	cfg.NodeOf, cfg.Node = testNodeOf, serverNode
	if cfg.Kernels == nil {
		cfg.Kernels = defaultServerKernels
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 10
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cdecls, err := spi.PeerDecls(g, m, testNodeOf, clientNode, cfg.Block)
	if err != nil {
		t.Fatal(err)
	}
	sdecls, err := spi.PeerDecls(g, m, testNodeOf, serverNode, cfg.Block)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	serverMux := NewMux(nil)
	accepted := make(chan *transport.Link, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		l, err := transport.AcceptLink(c, transport.LinkConfig{Node: serverNode, Sessions: true},
			func(peer int) ([]transport.EdgeDecl, transport.Handler, error) {
				return sdecls[clientNode], serverMux, nil
			})
		if err != nil {
			t.Error(err)
			accepted <- nil
			return
		}
		accepted <- l
	}()
	conn, err := transport.DialRetry(context.Background(), tr, ln.Addr(),
		transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	clientMux := NewMux(nil)
	d, err := transport.NewLink(conn, transport.LinkConfig{
		Node: clientNode, Edges: cdecls[serverNode], Sessions: clientSessions,
	}, clientMux)
	if err != nil {
		t.Fatal(err)
	}
	clientMux.Bind(d)
	a := <-accepted
	if a == nil {
		t.Fatal("accept failed")
	}
	serverMux.Bind(a)
	srv.Attach(serverMux)
	return &harness{
		t:      t,
		srv:    srv,
		client: NewClient(clientMux, 10*time.Second),
		iters:  cfg.Iterations,
		block:  cfg.Block,
		g:      g, m: m,
		dialer: d, acceptor: a, ln: ln,
	}
}

// stop aborts the link (unwinding any session still blocked on it) and
// waits the server down.
func (h *harness) stop() {
	h.dialer.Abort()
	h.acceptor.Abort()
	h.ln.Close()
	h.srv.Close()
}

// runStream executes the client partition over an open stream and waits
// for the server's verdict.
func (h *harness) runStream(s *Stream) ([][]byte, byte, error) {
	g, m := h.g, h.m
	if g == nil {
		g, m = testGraph()
	}
	var sink [][]byte
	var mu sync.Mutex
	_, execErr := spi.ExecuteDistributed(g, m, testKernels(&sink, &mu), h.iters, spi.DistOptions{
		Node: clientNode, Addrs: make([]string, 2), NodeOf: testNodeOf, Block: h.block, Links: s,
	})
	status, cerr := s.AwaitClose(20 * time.Second)
	h.client.Done(s)
	if execErr != nil {
		return sink, status, execErr
	}
	return sink, status, cerr
}

// runSession opens a session and drives it end to end.
func (h *harness) runSession(tenant string) ([][]byte, byte, error) {
	s, err := h.client.Open(tenant)
	if err != nil {
		return nil, 0, err
	}
	return h.runStream(s)
}

func waitSnapshot(t *testing.T, srv *Server, what string, ok func(Snapshot) bool) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var snap Snapshot
	for time.Now().Before(deadline) {
		snap = srv.Snapshot()
		if ok(snap) {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; snapshot %+v", what, snap)
	return snap
}

// TestServeSingleSession: one tagged session over each transport
// produces output bit-identical to the single-process reference.
func TestServeSingleSession(t *testing.T) {
	const iters = 12
	ref := localReference(t, iters)
	for _, tc := range []struct {
		name string
		tr   transport.Transport
		addr string
	}{
		{"loopback", transport.NewLoopback(), "srv"},
		{"tcp", &transport.TCP{}, "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := startServe(t, tc.tr, tc.addr, ServerConfig{Iterations: iters}, true)
			defer h.stop()
			sink, status, err := h.runSession("alice")
			if err != nil {
				t.Fatal(err)
			}
			if status != CloseDone {
				t.Fatalf("close status %s", closeString(status))
			}
			if !samePayloads(sink, ref) {
				t.Fatalf("session output differs from reference: %d vs %d payloads", len(sink), len(ref))
			}
			snap := waitSnapshot(t, h.srv, "completion", func(s Snapshot) bool {
				return s.Completed == 1 && s.Live == 0
			})
			if snap.Admitted != 1 || snap.Rejected != 0 {
				t.Fatalf("snapshot %+v", snap)
			}
		})
	}
}

// TestServeBlockedSession: a vectorized server (ServerConfig.Block) serves
// a graph whose delayed cross-node edge is block-aligned — two iterations of
// delay at B = 2, so the delay tokens themselves travel as a slab — and
// whose run ends on a partial block. A session is a static run: it keeps no
// checkpoint, so nothing about the blocked edge is refused, and its output is
// the scalar reference's.
func TestServeBlockedSession(t *testing.T) {
	const iters, delay = 11, 2
	ref := reference(t, iters, delay)
	g, m := delayedGraph(delay)
	h := startServe(t, transport.NewLoopback(), "srv-blocked",
		ServerConfig{Graph: g, Mapping: m, Iterations: iters, Block: 2}, true)
	defer h.stop()
	for i := 0; i < 3; i++ {
		sink, status, err := h.runSession("alice")
		if err != nil || status != CloseDone {
			t.Fatalf("session %d: status %s, err %v", i, closeString(status), err)
		}
		if !samePayloads(sink, ref) {
			t.Fatalf("session %d: blocked output differs from the scalar reference: %d vs %d payloads", i, len(sink), len(ref))
		}
	}
}

// TestServerNodeListWithHole: a static node list may name nodes that host
// nothing. Processors on nodes 0 and 2 leave node 1 empty; the server on
// node 2 compiles its own share alone and starts, and the empty node itself
// is refused by name.
func TestServerNodeListWithHole(t *testing.T) {
	g, m := testGraph()
	cfg := ServerConfig{Graph: g, Mapping: m, NodeOf: []int{0, 2}, Node: 2, Iterations: 1, Kernels: defaultServerKernels}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("node list with a hole: %v", err)
	}
	srv.Close()
	cfg.Node = 1
	if _, err := NewServer(cfg); err == nil || err.Error() != "spi: node 1 hosts no processors" {
		t.Fatalf("server on the empty node: %v", err)
	}
}

// TestServeConcurrentSessions multiplexes several sessions over the one
// link at once; every session's output must match the single-session
// reference bit for bit.
func TestServeConcurrentSessions(t *testing.T) {
	const iters, n = 10, 8
	ref := localReference(t, iters)
	h := startServe(t, transport.NewLoopback(), "srv", ServerConfig{Iterations: iters}, true)
	defer h.stop()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sink, status, err := h.runSession(fmt.Sprintf("tenant-%d", i%3))
			if err != nil {
				errs[i] = err
				return
			}
			if status != CloseDone {
				errs[i] = fmt.Errorf("close status %s", closeString(status))
				return
			}
			if !samePayloads(sink, ref) {
				errs[i] = fmt.Errorf("output differs from reference")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	snap := waitSnapshot(t, h.srv, "all sessions complete", func(s Snapshot) bool {
		return s.Completed == n && s.Live == 0
	})
	if snap.Admitted != n || snap.Rejected != 0 || snap.Failed != 0 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// TestUnassertedClientPassesAdmission: LinkConfig.Sessions is a local
// assertion about the handler, not a capability the peer sees. A client
// link that leaves it unset opens tagged sessions like any other and they
// pass admission: no session is admitted around the capacity caps, and
// untagged traffic on a session link belongs to no session.
func TestUnassertedClientPassesAdmission(t *testing.T) {
	const iters = 9
	ref := localReference(t, iters)
	h := startServe(t, transport.NewLoopback(), "srv",
		ServerConfig{Iterations: iters, Admission: Admission{MaxSessions: 1}}, false)
	defer h.stop()
	s, err := h.client.Open("first")
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.client.Open("second")
	var oe *OpenError
	if !errors.As(err, &oe) || oe.Status != StatusRejectedCapacity {
		t.Fatalf("open beyond MaxSessions: %v, want a capacity rejection", err)
	}
	sink, status, err := h.runStream(s)
	if err != nil {
		t.Fatal(err)
	}
	if status != CloseDone {
		t.Fatalf("close status %s", closeString(status))
	}
	if !samePayloads(sink, ref) {
		t.Fatal("session output differs from reference")
	}
	snap := waitSnapshot(t, h.srv, "session completion", func(s Snapshot) bool { return s.Completed == 1 })
	if snap.Admitted != 1 || snap.Rejected != 1 {
		t.Fatalf("snapshot %+v, want 1 admitted and 1 rejected", snap)
	}

	m := NewMux(obs.New())
	m.HandleData(1, []byte{1, 0})
	m.HandleAck(1, 1)
	m.HandleFin(1)
	if got := m.dropped.Value(); got != 3 {
		t.Fatalf("untagged frames dropped = %d, want 3", got)
	}
}

// TestAdmissionCapacity: with MaxSessions = K, K+M concurrent opens admit
// exactly K and reject exactly M with StatusRejectedCapacity, no matter
// how the opens interleave.
func TestAdmissionCapacity(t *testing.T) {
	const maxSessions, extra = 4, 3
	h := startServe(t, transport.NewLoopback(), "srv",
		ServerConfig{Admission: Admission{MaxSessions: maxSessions}}, true)
	defer h.stop()
	var wg sync.WaitGroup
	results := make([]error, maxSessions+extra)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = h.client.Open("crowd")
		}(i)
	}
	wg.Wait()
	rejected := 0
	for _, err := range results {
		if err == nil {
			continue
		}
		var oe *OpenError
		if !errors.As(err, &oe) || oe.Status != StatusRejectedCapacity {
			t.Fatalf("unexpected open error: %v", err)
		}
		rejected++
	}
	if rejected != extra {
		t.Fatalf("rejected %d opens, want %d", rejected, extra)
	}
	snap := h.srv.Snapshot()
	if snap.Admitted != maxSessions || snap.Rejected != extra || snap.Live != maxSessions {
		t.Fatalf("snapshot %+v", snap)
	}
}

// TestAdmissionQuota: per-tenant quota rejects the tenant's own surplus
// while leaving other tenants admissible.
func TestAdmissionQuota(t *testing.T) {
	h := startServe(t, transport.NewLoopback(), "srv",
		ServerConfig{Admission: Admission{TenantQuota: 1}}, true)
	defer h.stop()
	if _, err := h.client.Open("t"); err != nil {
		t.Fatal(err)
	}
	_, err := h.client.Open("t")
	var oe *OpenError
	if !errors.As(err, &oe) || oe.Status != StatusRejectedQuota {
		t.Fatalf("second open for the tenant: %v, want quota rejection", err)
	}
	if _, err := h.client.Open("u"); err != nil {
		t.Fatalf("other tenant should be admissible: %v", err)
	}
}

// TestTenantWeights exercises the weighted fair-share arithmetic.
func TestTenantWeights(t *testing.T) {
	a := newAdmitter(Admission{MaxSessions: 4, TenantWeights: map[string]int{"big": 3, "small": 1}})
	if cap := a.tenantCap("big"); cap != 3 {
		t.Fatalf("big's share = %d, want 3", cap)
	}
	if cap := a.tenantCap("small"); cap != 1 {
		t.Fatalf("small's share = %d, want 1", cap)
	}
	// Unlisted tenants weigh 1 and still get at least one session.
	if cap := a.tenantCap("other"); cap != 1 {
		t.Fatalf("unlisted tenant's share = %d, want 1", cap)
	}
	for i := 0; i < 3; i++ {
		if st, _, _ := a.admit("big"); st != StatusAdmitted {
			t.Fatalf("big open %d: %s", i, StatusString(st))
		}
	}
	if st, _, _ := a.admit("big"); st != StatusRejectedQuota {
		t.Fatalf("big beyond share: %s, want quota rejection", StatusString(st))
	}
	if st, _, _ := a.admit("small"); st != StatusAdmitted {
		t.Fatalf("small within share: %s", StatusString(st))
	}
	// Node now full: a healthy book rejects on capacity.
	if st, _, _ := a.admit("small"); st != StatusRejectedQuota {
		t.Fatalf("small beyond share: %s", StatusString(st))
	}
	if st, _, _ := a.admit("other"); st != StatusRejectedCapacity {
		t.Fatalf("full node with no degraded victim: %s", StatusString(st))
	}
}

// TestShedDegraded drives the full eviction path: a tenant over its byte
// budget degrades its oldest session; a later open on the full node
// sheds that session (its client sees CloseShed) and is itself admitted
// and served to completion.
func TestShedDegraded(t *testing.T) {
	const iters = 6
	ref := localReference(t, iters)
	gate := make(chan struct{})
	kernels := func(sid uint32, tenant string) map[dataflow.ActorID]spi.Kernel {
		ks := defaultServerKernels(sid, tenant)
		if sid == 1 {
			inner := ks[1]
			ks[1] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
				<-gate
				return inner(iter, in)
			}
		}
		return ks
	}
	h := startServe(t, transport.NewLoopback(), "srv", ServerConfig{
		Iterations: iters,
		Kernels:    kernels,
		Admission:  Admission{MaxSessions: 1, MaxTenantBytes: 1},
	}, true)
	defer h.stop()

	s1, err := h.client.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	res1 := make(chan error, 1)
	go func() {
		_, _, err := h.runStream(s1)
		res1 <- err
	}()
	// Session 1's first DATA frame blows the 1-byte tenant budget and
	// degrades it (sticky), making it the shed victim.
	waitSnapshot(t, h.srv, "degradation", func(s Snapshot) bool { return s.Degraded == 1 })

	s2, err := h.client.Open("t")
	if err != nil {
		t.Fatalf("open on a full node with a degraded victim: %v", err)
	}
	close(gate) // let session 1's gated kernel observe its shed
	if err := <-res1; err == nil {
		t.Fatal("shed session's client run should fail")
	}
	sink, status, err := h.runStream(s2)
	if err != nil {
		t.Fatal(err)
	}
	if status != CloseDone || !samePayloads(sink, ref) {
		t.Fatalf("session 2: status %s, payloads match: %v", closeString(status), samePayloads(sink, ref))
	}
	snap := waitSnapshot(t, h.srv, "shed accounting", func(s Snapshot) bool {
		return s.Shed == 1 && s.Completed == 1 && s.Failed == 1 && s.Live == 0
	})
	if snap.Admitted != 2 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// replayRecorder records inbound events in dispatch order.
type replayRecorder struct {
	mu     sync.Mutex
	events []string
}

func (r *replayRecorder) record(ev string) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}
func (r *replayRecorder) HandleData(edge uint16, msg []byte) {
	r.record(fmt.Sprintf("data:%d:%x", edge, msg))
}
func (r *replayRecorder) HandleAck(edge uint16, count uint32) {
	r.record(fmt.Sprintf("ack:%d:%d", edge, count))
}
func (r *replayRecorder) HandleFin(edge uint16)     { r.record(fmt.Sprintf("fin:%d", edge)) }
func (r *replayRecorder) HandleLinkClose(err error) { r.record("close") }

// TestStreamReplayOrder: traffic arriving before the execution attaches
// is buffered and replayed to Connect's handler in exact arrival order.
func TestStreamReplayOrder(t *testing.T) {
	m := NewMux(nil)
	s := m.Adopt(5, 1)
	payload := []byte{1, 0, 0xaa}
	m.HandleSessionData(5, 1, payload)
	payload[2] = 0xff // the stream must have copied, not aliased
	m.HandleSessionAck(5, 0, 3)
	m.HandleSessionData(5, 1, []byte{1, 0, 0xbb})
	m.HandleSessionFin(5, 1)

	rec := &replayRecorder{}
	if _, err := s.Connect(1, []transport.EdgeDecl{{ID: 1, Bytes: 3}}, rec); err != nil {
		t.Fatal(err)
	}
	want := []string{"data:1:0100aa", "ack:0:3", "data:1:0100bb", "fin:1"}
	rec.mu.Lock()
	got := append([]string(nil), rec.events...)
	rec.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %s, want %s", i, got[i], want[i])
		}
	}
	// Post-attach traffic dispatches directly.
	m.HandleSessionData(5, 1, []byte{1, 0, 0xcc})
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.events) != 5 || rec.events[4] != "data:1:0100cc" {
		t.Fatalf("direct dispatch events %v", rec.events)
	}
}

// TestStreamByteAccounting checks the queued-byte estimate moves up on
// delivery and down by declared bytes on acknowledgement, never below 0.
func TestStreamByteAccounting(t *testing.T) {
	m := NewMux(nil)
	s := m.Adopt(9, 1)
	var total int64
	s.setAccount(func(d int64) { total += d })
	if _, err := s.Connect(1, []transport.EdgeDecl{{ID: 2, Bytes: 8}}, &replayRecorder{}); err != nil {
		t.Fatal(err)
	}
	m.HandleSessionData(9, 2, make([]byte, 10))
	m.HandleSessionData(9, 2, make([]byte, 10))
	if total != 20 || s.takeQueued() != 20 {
		t.Fatalf("queued %d after two deliveries", total)
	}
	m.HandleSessionData(9, 2, make([]byte, 10))
	s.noteConsumed(2, 1) // retires min(8, queued)
	if total != 20+10-8 {
		t.Fatalf("after one ack total = %d", total)
	}
	s.noteConsumed(2, 100) // clamps at zero, never negative
	if total != 20 {
		t.Fatalf("after over-ack total = %d (residual should be 0 net of takeQueued)", total)
	}
	if q := s.takeQueued(); q != 0 {
		t.Fatalf("residual queued = %d", q)
	}
}

// TestThousandSessions sustains 1000 concurrent sessions over the one
// loopback link pair — the acceptance bar for the session layer.
func TestThousandSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-session soak skipped in -short")
	}
	const iters, n = 2, 1000
	ref := localReference(t, iters)
	h := startServe(t, transport.NewLoopback(), "srv", ServerConfig{Iterations: iters}, true)
	defer h.stop()
	var wg sync.WaitGroup
	var mu sync.Mutex
	bad := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sink, status, err := h.runSession(fmt.Sprintf("tenant-%d", i%10))
			if err != nil || status != CloseDone || !samePayloads(sink, ref) {
				mu.Lock()
				if bad == 0 {
					t.Errorf("session %d: err=%v status=%d identical=%v", i, err, status, samePayloads(sink, ref))
				}
				bad++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if bad > 0 {
		t.Fatalf("%d of %d sessions failed or diverged", bad, n)
	}
	snap := waitSnapshot(t, h.srv, "soak completion", func(s Snapshot) bool {
		return s.Completed == n && s.Live == 0
	})
	if snap.Admitted != n {
		t.Fatalf("snapshot %+v", snap)
	}
}

// chaosHarness is startServe over a FaultTransport with reconnection:
// the accept loop keeps running, routing RESUME handshakes back to the
// established link, so severed connections replay every live session.
func chaosHarness(t *testing.T, ft *transport.FaultTransport, cfg ServerConfig) *harness {
	t.Helper()
	g, m := testGraph()
	cfg.Graph, cfg.Mapping, cfg.NodeOf = g, m, testNodeOf
	cfg.Node = serverNode
	if cfg.Kernels == nil {
		cfg.Kernels = defaultServerKernels
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 10
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cdecls, _ := spi.PeerDecls(g, m, testNodeOf, clientNode, cfg.Block)
	sdecls, _ := spi.PeerDecls(g, m, testNodeOf, serverNode, cfg.Block)
	ln, err := ft.Listen("chaos-srv")
	if err != nil {
		t.Fatal(err)
	}
	rc := transport.ReconnectConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Deadline: 20 * time.Second}
	serverMux := NewMux(nil)
	accepted := make(chan *transport.Link, 1)
	go func() {
		var acceptor *transport.Link
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			l, err := transport.AcceptConn(c, transport.LinkConfig{Node: serverNode, Sessions: true, Reconnect: rc},
				func(peer int) ([]transport.EdgeDecl, transport.Handler, error) {
					return sdecls[clientNode], serverMux, nil
				},
				func(peer int, token uint64) *transport.Link {
					if acceptor != nil && acceptor.PeerNode() == peer && acceptor.Token() == token {
						return acceptor
					}
					return nil
				})
			if err != nil {
				continue
			}
			if l != nil {
				acceptor = l
				accepted <- l
			}
		}
	}()
	conn, err := ft.Dial("chaos-srv")
	if err != nil {
		t.Fatal(err)
	}
	clientMux := NewMux(nil)
	d, err := transport.NewLink(conn, transport.LinkConfig{
		Node: clientNode, Edges: cdecls[serverNode], Sessions: true,
		Reconnect: rc,
		Redial:    func() (transport.Conn, error) { return ft.Dial("chaos-srv") },
	}, clientMux)
	if err != nil {
		t.Fatal(err)
	}
	clientMux.Bind(d)
	a := <-accepted
	serverMux.Bind(a)
	srv.Attach(serverMux)
	return &harness{
		t: t, srv: srv, client: NewClient(clientMux, 20*time.Second),
		iters: cfg.Iterations, block: cfg.Block,
		dialer: d, acceptor: a, ln: ln,
	}
}

// TestChaosSessions runs concurrent sessions over a faulty link: drops
// and deterministic severs are repaired by link-level RESUME replay, and
// every surviving session's output stays bit-identical to its
// single-session reference. With a capacity cap, the up-front opens see
// deterministic admission verdicts under the seed.
func TestChaosSessions(t *testing.T) {
	const iters = 12
	ref := localReference(t, iters)
	schedules := []struct {
		name string
		cfg  transport.FaultConfig
	}{
		{"drops", transport.FaultConfig{Seed: 7, Drop: 0.03, SkipFrames: 8, MaxFaults: 30}},
		{"severs", transport.FaultConfig{Seed: 9, SeverAt: []int{40, 90}, SkipFrames: 8}},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			ft := transport.NewFaultTransport(transport.NewLoopback(), sc.cfg)
			h := chaosHarness(t, ft, ServerConfig{
				Iterations: iters,
				Admission:  Admission{MaxSessions: 2},
			})
			defer h.stop()

			// Open all four up front, in order, before any execution: on a
			// 2-session node the verdicts are deterministic — 2 admitted,
			// then 2 capacity rejections — independent of fault timing.
			var streams []*Stream
			for i := 0; i < 4; i++ {
				s, err := h.client.Open(fmt.Sprintf("chaos-%d", i))
				if i < 2 {
					if err != nil {
						t.Fatalf("open %d: %v", i, err)
					}
					streams = append(streams, s)
					continue
				}
				var oe *OpenError
				if !errors.As(err, &oe) || oe.Status != StatusRejectedCapacity {
					t.Fatalf("open %d: %v, want deterministic capacity rejection", i, err)
				}
			}

			var wg sync.WaitGroup
			errs := make([]error, len(streams))
			for i, s := range streams {
				wg.Add(1)
				go func(i int, s *Stream) {
					defer wg.Done()
					sink, status, err := h.runStream(s)
					if err != nil {
						errs[i] = err
						return
					}
					if status != CloseDone {
						errs[i] = fmt.Errorf("close status %s", closeString(status))
						return
					}
					if !samePayloads(sink, ref) {
						errs[i] = fmt.Errorf("output diverged from reference under chaos")
					}
				}(i, s)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("session %d: %v", i, err)
				}
			}
			snap := waitSnapshot(t, h.srv, "chaos completion", func(s Snapshot) bool {
				return s.Completed == 2 && s.Live == 0
			})
			if snap.Admitted != 2 || snap.Rejected != 2 {
				t.Fatalf("snapshot %+v", snap)
			}
			if st := ft.Stats(); st.Drops+st.Severs == 0 {
				t.Logf("schedule %s injected no faults (seed too gentle?)", sc.name)
			}
		})
	}
}
