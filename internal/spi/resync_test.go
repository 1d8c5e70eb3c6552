package spi

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/transport"
)

// resyncRoundTrip is a round trip SRC → W → SNK between processors 0 and 1,
// whose two UBS acknowledgements the §4 verdict proves redundant (each is
// covered by the other edge and processor 0's loop), plus a tap W → TAP onto
// processor 2 whose acknowledgement it keeps. Processors 0 and 2 run on node
// 0 and processor 1 on node 1, so one link carries all three edges: node 1
// receives only on the suppressed "in", node 0 on the suppressed "out" and
// the kept "wt".
func resyncRoundTrip() (*dataflow.Graph, *sched.Mapping) {
	g := dataflow.New("resync")
	src := g.AddActor("SRC", 1)
	w := g.AddActor("W", 1)
	snk := g.AddActor("SNK", 1)
	tap := g.AddActor("TAP", 1)
	g.AddEdge("in", src, w, 1, 1, dataflow.EdgeSpec{TokenBytes: 8})
	g.AddEdge("out", w, snk, 1, 1, dataflow.EdgeSpec{TokenBytes: 8})
	g.AddEdge("wt", w, tap, 1, 1, dataflow.EdgeSpec{TokenBytes: 4})
	m := &sched.Mapping{
		NumProcs: 3,
		Proc:     []sched.Processor{0, 1, 0, 2},
		Order:    [][]dataflow.ActorID{{src, snk}, {w}, {tap}},
	}
	return g, m
}

// resyncNodes runs resyncRoundTrip with the verdict on over tr, node 0
// listening at addr, and returns each node's stats and metrics after
// checking the sink digests against the in-process run.
func resyncNodes(t *testing.T, tr transport.Transport, addr string, iterations int, rc transport.ReconnectConfig) ([2]*ExecStats, [2]*obs.Registry) {
	t.Helper()
	g, m := resyncRoundTrip()
	ref := &partTestSinks{d: map[string]uint64{}}
	byID, _ := partTestKernels(g, 7, ref)
	if _, err := Execute(g, m, byID, iterations); err != nil {
		t.Fatal(err)
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	sinks := &partTestSinks{d: map[string]uint64{}}
	var stats [2]*ExecStats
	var regs [2]*obs.Registry
	var errs [2]error
	var wg sync.WaitGroup
	for node := range 2 {
		o := obs.New()
		regs[node] = o.Metrics
		byID, _ := partTestKernels(g, 7, sinks)
		opts := DistOptions{Transport: tr, Node: node, Addrs: []string{ln.Addr(), "unused"}, NodeOf: []int{0, 1, 0},
			Resync: true, Reconnect: rc, Obs: o,
			Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}}
		if node == 0 {
			opts.Listener = ln
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[node], errs[node] = ExecuteDistributed(g, m, byID, iterations, opts)
		}()
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	if got, want := sinks.snapshot(), ref.snapshot(); got["SNK"] != want["SNK"] || got["TAP"] != want["TAP"] {
		t.Fatalf("sink digests %v, in-process %v", got, want)
	}
	return stats, regs
}

// checkResyncAcks: the receiver of a suppressed edge counts one suppressed
// ack per message and issues none — in its stats and in the per-edge
// metrics, which count every SendAck the receive path makes — the kept edge
// acks every message, and node 1, which receives only on a suppressed edge,
// puts no ACK frame on the wire.
func checkResyncAcks(t *testing.T, stats [2]*ExecStats, regs [2]*obs.Registry, iterations int) {
	t.Helper()
	for _, c := range []struct {
		node                 int
		edge                 string
		acks, suppressedAcks int64
	}{
		{1, "in", 0, int64(iterations)},
		{0, "out", 0, int64(iterations)},
		{0, "wt", int64(iterations), 0},
	} {
		for _, e := range stats[c.node].Edges {
			if e.Name == c.edge && (e.Stats.Acks != c.acks || e.Stats.AcksSuppressed != c.suppressedAcks) {
				t.Errorf("node %d edge %s: %d acks, %d suppressed; want %d and %d",
					c.node, c.edge, e.Stats.Acks, e.Stats.AcksSuppressed, c.acks, c.suppressedAcks)
			}
		}
		acks, _ := regs[c.node].Get("spi_edge_acks_total", obs.L("edge", c.edge))
		suppressed, _ := regs[c.node].Get("spi_edge_acks_suppressed_total", obs.L("edge", c.edge))
		if acks != c.acks || suppressed != c.suppressedAcks {
			t.Errorf("node %d edge %s exports %d acks, %d suppressed; want %d and %d", c.node, c.edge, acks, suppressed, c.acks, c.suppressedAcks)
		}
	}
	if n := regs[1].Sum("transport_link_acks_sent_total"); n != 0 {
		t.Errorf("node 1 receives only on a suppressed edge but sent %d ACK frames", n)
	}
	if n := regs[0].Sum("transport_link_acks_received_total"); n != 0 {
		t.Errorf("node 0 received %d ACK frames for the suppressed edge", n)
	}
	if n := regs[0].Sum("transport_link_acks_sent_total"); n == 0 {
		t.Error("node 0 sent no ACK frame for the kept edge")
	}
}

// TestResyncSuppressesAcks: on every carrier, a suppressed edge issues no
// SendAck, while the edge the verdict keeps acks as before.
func TestResyncSuppressesAcks(t *testing.T) {
	const iterations = 40
	for name, c := range map[string]struct {
		tr   transport.Transport
		addr string
	}{
		"loopback": {transport.NewLoopback(), "resync0"},
		"tcp":      {&transport.TCP{}, "127.0.0.1:0"},
	} {
		t.Run(name, func(t *testing.T) {
			stats, regs := resyncNodes(t, c.tr, c.addr, iterations, transport.ReconnectConfig{})
			checkResyncAcks(t, stats, regs, iterations)
		})
	}
}

// TestResyncChaosSeverResume severs every connection mid-stream with
// suppression on: the digests still match, and no ack for a suppressed edge
// comes back across a sever and RESUME — there is none to replay.
func TestResyncChaosSeverResume(t *testing.T) {
	const iterations = 120
	// Write 0 of a connection is its HELLO or RESUME, so 13 and 41 sever
	// mid-stream on every connection.
	ft := transport.NewFaultTransport(transport.NewLoopback(), transport.FaultConfig{Seed: 9, SeverAt: []int{13, 41}, SkipFrames: 4})
	stats, regs := resyncNodes(t, ft, "resync-chaos0", iterations, chaosReconnect(20*time.Second))
	if regs[0].Sum("transport_link_resumes_total")+regs[1].Sum("transport_link_resumes_total") == 0 {
		t.Fatal("no resumes happened; the sever schedule never fired")
	}
	checkResyncAcks(t, stats, regs, iterations)
}
