package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/cmd/internal/runcfg"
	"repro/internal/dataflow"
	"repro/internal/spi"
	"repro/internal/transport"
)

const testGraph = `graph pipeline
actor src 100
actor mid 150
actor sink 50
edge sm src mid 4 4 bytes=2 delay=4
edge ms mid sink 4 4 bytes=2 dynamic
`

func parseTestGraph(t *testing.T) *dataflow.Graph {
	t.Helper()
	g, err := dataflow.Parse(strings.NewReader(testGraph))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func digestLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "digest ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// pipelineNode is one node's configuration of the 3-actor pipeline tests:
// assignment 0,1,1, seed 7, everything else as the caller's DistOptions
// (transport, listener, addresses, node, tuning) say.
func pipelineNode(g *dataflow.Graph, iters int, nodeOf []int, opts spi.DistOptions) nodeConfig {
	return nodeConfig{Run: runcfg.Run{
		Graph: g, Assign: []int{0, 1, 1}, NodeOf: nodeOf, Iters: iters, Seed: 7, Opts: opts,
	}}
}

// singleNodeDigests runs g with both processors on one node and returns
// its digest lines — the reference every distributed variant must match.
func singleNodeDigests(t *testing.T, g *dataflow.Graph, iters int) []string {
	t.Helper()
	var out bytes.Buffer
	err := runNode(pipelineNode(g, iters, []int{0, 0},
		spi.DistOptions{Transport: transport.NewLoopback(), Addrs: []string{"only"}}), &out)
	if err != nil {
		t.Fatal(err)
	}
	want := digestLines(out.String())
	if len(want) != 1 {
		t.Fatalf("single-node run printed %d digest lines:\n%s", len(want), out.String())
	}
	return want
}

// TestTwoNodesMatchSingle is the spinode end-to-end: the pipeline graph
// run on one node must produce the same sink digests as the same graph
// split across two spinode partitions talking TCP on localhost.
func TestTwoNodesMatchSingle(t *testing.T) {
	const iters = 12
	want := singleNodeDigests(t, parseTestGraph(t), iters)

	// Two nodes over TCP localhost (node 1 dials node 0, so only node 0
	// needs a listener; its ephemeral port is shared via Addrs).
	tr := &transport.TCP{}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr(), "unused"}
	graphs := [2]*dataflow.Graph{parseTestGraph(t), parseTestGraph(t)}
	var outs [2]bytes.Buffer
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			opts := spi.DistOptions{Transport: tr, Addrs: addrs, Node: node}
			if node == 0 {
				opts.Listener = ln
			}
			errs[node] = runNode(pipelineNode(graphs[node], iters, []int{0, 1}, opts), &outs[node])
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v\n%s", node, err, outs[node].String())
		}
	}
	var got []string
	for node := range outs {
		got = append(got, digestLines(outs[node].String())...)
	}
	if len(got) != 1 || got[0] != want[0] {
		t.Errorf("digests differ:\nsingle: %v\ndistributed: %v", want, got)
	}
}

// loadPipelineSDF parses the real examples/graphs/pipeline.sdf so the
// chaos harness exercises the shipped walkthrough graph, not a copy.
func loadPipelineSDF(t *testing.T) *dataflow.Graph {
	t.Helper()
	f, err := os.Open("../../examples/graphs/pipeline.sdf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := dataflow.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runTwoNodes runs the two-node split of graph-building fn over tr with
// the tuning in opts and returns both nodes' outputs and errors. A
// watchdog bounds the run so a failed recovery cannot hang the suite.
func runTwoNodes(t *testing.T, newGraph func(t *testing.T) *dataflow.Graph, tr transport.Transport,
	iters int, opts spi.DistOptions) ([2]*bytes.Buffer, [2]error) {
	t.Helper()
	ln, err := tr.Listen("chaos-node0")
	if err != nil {
		t.Fatal(err)
	}
	opts.Transport, opts.Addrs = tr, []string{ln.Addr(), "unused"}
	outs := [2]*bytes.Buffer{{}, {}}
	var errs [2]error
	var wg sync.WaitGroup
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			opts := opts
			opts.Node = node
			if node == 0 {
				opts.Listener = ln
			}
			errs[node] = runNode(pipelineNode(newGraph(t), iters, []int{0, 1}, opts), outs[node])
		}(node)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("two-node spinode run wedged")
	}
	return outs, errs
}

// TestPipelineChaosRecovers runs the shipped pipeline.sdf two-node split
// under seeded fault schedules that link resumption can repair and checks
// the sink digest stays bit-identical to the fault-free single-node run.
func TestPipelineChaosRecovers(t *testing.T) {
	const iters = 40
	want := singleNodeDigests(t, loadPipelineSDF(t), iters)
	rc := transport.ReconnectConfig{Attempts: 50, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, Deadline: 20 * time.Second}
	for _, spec := range []string{
		"seed=11,drop=0.05,skip=6,maxfaults=25",
		"seed=12,corrupt=0.05,skip=6,maxfaults=25",
		"seed=13,severat=9;31,skip=6",
	} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			fc, err := transport.ParseFaultSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			ft := transport.NewFaultTransport(transport.NewLoopback(), fc)
			outs, errs := runTwoNodes(t, loadPipelineSDF, ft, iters, spi.DistOptions{Reconnect: rc})
			for node, err := range errs {
				if err != nil {
					t.Fatalf("node %d: %v (faults: %+v)\n%s", node, err, ft.Stats(), outs[node].String())
				}
			}
			got := append(digestLines(outs[0].String()), digestLines(outs[1].String())...)
			if len(got) != 1 || got[0] != want[0] {
				t.Errorf("digests diverged under %s:\nwant %v\ngot  %v (faults: %+v)",
					spec, want, got, ft.Stats())
			}
		})
	}
}

// TestPipelineBlockedMatchesSingle: running the shipped pipeline.sdf with
// -block must leave the sink digest bit-identical to the scalar
// single-node run. The graph mixes both edge classes: sm's one-iteration
// delay never aligns with a block above 1 (token-granular), ms packs
// slabs.
func TestPipelineBlockedMatchesSingle(t *testing.T) {
	const iters = 40
	want := singleNodeDigests(t, loadPipelineSDF(t), iters)
	for _, block := range []int{2, 4, 7} { // 7 leaves a partial final block of 5
		outs, errs := runTwoNodes(t, loadPipelineSDF, transport.NewLoopback(), iters, spi.DistOptions{Block: block})
		for node, err := range errs {
			if err != nil {
				t.Fatalf("block %d node %d: %v\n%s", block, node, err, outs[node].String())
			}
		}
		got := append(digestLines(outs[0].String()), digestLines(outs[1].String())...)
		if len(got) != 1 || got[0] != want[0] {
			t.Errorf("block %d digests diverged:\nwant %v\ngot  %v", block, want, got)
		}
	}
}

// TestPipelineBlockedChaosRecovers severs the link mid-run while blocked:
// slab replay across the resumption must keep the digest bit-identical.
func TestPipelineBlockedChaosRecovers(t *testing.T) {
	const iters = 40
	want := singleNodeDigests(t, loadPipelineSDF(t), iters)
	rc := transport.ReconnectConfig{Attempts: 50, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, Deadline: 20 * time.Second}
	fc, err := transport.ParseFaultSpec("seed=31,severat=7;19,skip=4")
	if err != nil {
		t.Fatal(err)
	}
	ft := transport.NewFaultTransport(transport.NewLoopback(), fc)
	outs, errs := runTwoNodes(t, loadPipelineSDF, ft, iters, spi.DistOptions{Reconnect: rc, Block: 4})
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v (faults: %+v)\n%s", node, err, ft.Stats(), outs[node].String())
		}
	}
	got := append(digestLines(outs[0].String()), digestLines(outs[1].String())...)
	if len(got) != 1 || got[0] != want[0] {
		t.Errorf("blocked chaos digests diverged:\nwant %v\ngot  %v (faults: %+v)", want, got, ft.Stats())
	}
}

// TestPipelineResyncChaosRecovers runs pipeline.sdf under chaos with
// -resync on both nodes. The graph's only cross-node edge (sm) is static,
// so the suppression set is empty on both sides, no manifest entry is
// marked ack-suppressed, and the link acks in full — the test pins that an
// empty verdict is exactly the unoptimized wire behavior, with a
// bit-identical digest across drops and severs.
func TestPipelineResyncChaosRecovers(t *testing.T) {
	const iters = 40
	want := singleNodeDigests(t, loadPipelineSDF(t), iters)
	rc := transport.ReconnectConfig{Attempts: 50, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, Deadline: 20 * time.Second}
	for _, spec := range []string{
		"seed=41,drop=0.05,skip=6,maxfaults=25",
		"seed=42,severat=9;31,skip=6",
	} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			fc, err := transport.ParseFaultSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			ft := transport.NewFaultTransport(transport.NewLoopback(), fc)
			outs, errs := runTwoNodes(t, loadPipelineSDF, ft, iters, spi.DistOptions{Reconnect: rc, Resync: true})
			for node, err := range errs {
				if err != nil {
					t.Fatalf("node %d: %v (faults: %+v)\n%s", node, err, ft.Stats(), outs[node].String())
				}
			}
			got := append(digestLines(outs[0].String()), digestLines(outs[1].String())...)
			if len(got) != 1 || got[0] != want[0] {
				t.Errorf("digests diverged under %s with -resync:\nwant %v\ngot  %v (faults: %+v)",
					spec, want, got, ft.Stats())
			}
			for node := 0; node < 2; node++ {
				for _, line := range strings.Split(outs[node].String(), "\n") {
					if strings.Contains(line, "suppressed") && !strings.HasSuffix(line, " 0 suppressed") {
						t.Errorf("node %d reported suppressed acks on a graph with no suppressible edges: %q",
							node, line)
					}
				}
			}
		})
	}
}

// TestPipelineDegradedExit severs the inter-node link permanently: with
// -degrade semantics both nodes must finish, print partial digests plus a
// per-peer failure summary, and return a DegradedError (exit status 3).
func TestPipelineDegradedExit(t *testing.T) {
	fc, err := transport.ParseFaultSpec("seed=21,severat=15,skip=6,denydials=1")
	if err != nil {
		t.Fatal(err)
	}
	ft := transport.NewFaultTransport(transport.NewLoopback(), fc)
	rc := transport.ReconnectConfig{Attempts: 4, BaseDelay: time.Millisecond,
		MaxDelay: 2 * time.Millisecond, Deadline: 500 * time.Millisecond}
	outs, errs := runTwoNodes(t, loadPipelineSDF, ft, 200, spi.DistOptions{Reconnect: rc, Degrade: true})
	for node, err := range errs {
		var de *spi.DegradedError
		if !errors.As(err, &de) {
			t.Fatalf("node %d: err = %v, want *spi.DegradedError\n%s", node, err, outs[node].String())
		}
		out := outs[node].String()
		if node == 1 && !strings.Contains(out, "partial-digest sink") {
			t.Errorf("node 1 printed no partial sink digest:\n%s", out)
		}
		other := 1 - node
		if !strings.Contains(out, fmt.Sprintf("peer node %d at", other)) {
			t.Errorf("node %d summary does not name peer %d:\n%s", node, other, out)
		}
		if !strings.Contains(out, "degraded: node") {
			t.Errorf("node %d printed no degradation summary:\n%s", node, out)
		}
	}
}

// TestConnectFailureNamesPeer checks the -connect-timeout satellite: an
// unreachable peer fails fast with a message naming the peer and address
// rather than a bare handshake timeout.
func TestConnectFailureNamesPeer(t *testing.T) {
	cfg := pipelineNode(parseTestGraph(t), 5, []int{0, 1}, spi.DistOptions{
		Transport: transport.NewLoopback(), Addrs: []string{"nobody-home", "unused"}, Node: 1,
	})
	cfg.ConnectTimeout = 200 * time.Millisecond
	var out bytes.Buffer
	err := runNode(cfg, &out)
	if err == nil {
		t.Fatal("run with an unreachable peer succeeded")
	}
	if !strings.Contains(err.Error(), "could not reach node 0 at nobody-home") {
		t.Errorf("err = %v, want a could-not-reach message naming peer and address", err)
	}
}
