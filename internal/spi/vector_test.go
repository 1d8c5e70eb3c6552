package spi

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/transport"
)

func TestSlabRoundTripStatic(t *testing.T) {
	tokens := [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}
	slab, err := PackSlab(nil, tokens, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(slab) != 12 {
		t.Fatalf("static slab of 3x4 tokens is %d bytes, want 12", len(slab))
	}
	views, err := UnpackSlab(slab, 3, 4, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("unpacked %d tokens, want 3", len(views))
	}
	for i := range tokens {
		if !bytes.Equal(views[i], tokens[i]) {
			t.Errorf("token %d = %v, want %v", i, views[i], tokens[i])
		}
	}
}

func TestSlabStaticPadsShortTokens(t *testing.T) {
	slab, err := PackSlab(nil, [][]byte{{1}, nil, {2, 3}}, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	views, err := UnpackSlab(slab, 3, 4, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{{1, 0, 0, 0}, {0, 0, 0, 0}, {2, 3, 0, 0}}
	for i := range want {
		if !bytes.Equal(views[i], want[i]) {
			t.Errorf("token %d = %v, want zero-padded %v", i, views[i], want[i])
		}
	}
}

func TestSlabRoundTripDynamic(t *testing.T) {
	tokens := [][]byte{{1, 2, 3}, {}, {4}, {5, 6, 7, 8}}
	slab, err := PackSlab(nil, tokens, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	views, err := UnpackSlab(slab, 4, 8, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 4 {
		t.Fatalf("unpacked %d tokens, want 4", len(views))
	}
	for i := range tokens {
		if !bytes.Equal(views[i], tokens[i]) {
			t.Errorf("token %d = %v, want %v (sizes must survive the round trip)", i, views[i], tokens[i])
		}
	}
}

// A consumer's final partial block may need fewer tokens than a full slab
// holds (delay-shifted edges): extras must be tolerated, a shortage must
// not.
func TestSlabMinTokens(t *testing.T) {
	slab, err := PackSlab(nil, [][]byte{{1}, {2}, {3}, {4}}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if views, err := UnpackSlab(slab, 2, 1, false, nil); err != nil || len(views) != 4 {
		t.Fatalf("UnpackSlab(min=2) on a 4-token slab = %d tokens, %v; want all 4, nil", len(views), err)
	}
	if _, err := UnpackSlab(slab, 5, 1, false, nil); err == nil {
		t.Fatal("UnpackSlab(min=5) on a 4-token slab should fail")
	}
}

func TestSlabRejectsOversizedToken(t *testing.T) {
	if _, err := PackSlab(nil, [][]byte{{1, 2, 3}}, 2, false); err == nil {
		t.Fatal("static token over the bound should be rejected")
	}
	if _, err := PackSlab(nil, [][]byte{{1, 2, 3}}, 2, true); err == nil {
		t.Fatal("dynamic token over the bound should be rejected")
	}
}

func TestSlabRejectsTruncated(t *testing.T) {
	slab, err := PackSlab(nil, [][]byte{{1, 2}, {3, 4, 5}}, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(slab); cut++ {
		if _, err := UnpackSlab(slab[:cut], 2, 8, true, nil); err == nil {
			t.Fatalf("truncation to %d of %d bytes should be rejected", cut, len(slab))
		}
	}
	if _, err := UnpackSlab([]byte{1, 2, 3}, 1, 2, false, nil); err == nil {
		t.Fatal("static slab with a ragged length should be rejected")
	}
}

// TestExecuteBlockedMatchesScalar runs the mixed fixture (ab's 1-iteration
// delay is misaligned with every block > 1, so it is carried; bc has none)
// at several blocking factors, including ones that leave a partial final
// block, and demands bit-identical sink payloads.
func TestExecuteBlockedMatchesScalar(t *testing.T) {
	const iterations = 25
	ref := runReference(t, iterations)
	for _, block := range []int{2, 3, 4, 5, 8, 16, 32} {
		g, m := distGraph()
		var sink [][]byte
		var mu sync.Mutex
		st, err := ExecuteBlocked(g, m, distKernels(&sink, &mu), iterations, VecOptions{Block: block})
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		if !samePayloads(ref, sink) {
			t.Errorf("block %d: output differs from scalar run", block)
		}
		if st.ActorFirings["B"] != iterations {
			t.Errorf("block %d: B fired %d times, want %d", block, st.ActorFirings["B"], iterations)
		}
	}
}

// vecGraph is a two-actor feedback loop whose back edge carries an
// 8-iteration delay: blocks of 2, 4, and 8 are decoupled (8 is a whole
// multiple), 3 is not. Both edges cross processors, so a blocked run packs
// slabs on both (fwd delay 0, back delay 8) and preloads the back edge
// with whole slabs of empty tokens.
func vecGraph() (*dataflow.Graph, *sched.Mapping) {
	g := dataflow.New("vec")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("fwd", a, b, 1, 1, dataflow.EdgeSpec{TokenBytes: 2})
	g.AddEdge("back", b, a, 1, 1, dataflow.EdgeSpec{TokenBytes: 3, Delay: 8, ProduceDynamic: true, ConsumeDynamic: true})
	m := &sched.Mapping{
		NumProcs: 2,
		Proc:     []sched.Processor{0, 1},
		Order:    [][]dataflow.ActorID{{a}, {b}},
	}
	return g, m
}

// vecKernels: A folds its feedback input into a 2-byte token; B answers
// with a variable-length token and records everything it saw.
func vecKernels(seen *[][]byte, mu *sync.Mutex) map[dataflow.ActorID]Kernel {
	return map[dataflow.ActorID]Kernel{
		0: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			var sum byte
			for _, v := range in[1] {
				sum += v
			}
			return map[dataflow.EdgeID][]byte{0: {byte(iter), sum}}, nil
		},
		1: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			cp := make([]byte, len(in[0]))
			copy(cp, in[0])
			mu.Lock()
			*seen = append(*seen, cp)
			mu.Unlock()
			out := make([]byte, iter%3+1)
			for i := range out {
				out[i] = byte(iter*7 + i)
			}
			return map[dataflow.EdgeID][]byte{1: out}, nil
		},
	}
}

// TestExecuteBlockedFeedbackDelay checks blocked execution through a
// delay-decoupled cycle: the back edge's 8-iteration delay becomes whole
// preloaded slabs, and the final partial block reads fewer tokens than the
// delayed slab carries.
func TestExecuteBlockedFeedbackDelay(t *testing.T) {
	const iterations = 21
	g, m := vecGraph()
	var ref [][]byte
	var mu sync.Mutex
	if _, err := Execute(g, m, vecKernels(&ref, &mu), iterations); err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{2, 4, 8} {
		g, m := vecGraph()
		var got [][]byte
		if _, err := ExecuteBlocked(g, m, vecKernels(&got, &mu), iterations, VecOptions{Block: block}); err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		if !samePayloads(ref, got) {
			t.Errorf("block %d: B saw different tokens than in the scalar run", block)
		}
	}
}

// TestExecuteBlockedInfeasible: a block that no cycle delay covers must be
// rejected up front with the deadlock diagnosis, not hang.
func TestExecuteBlockedInfeasible(t *testing.T) {
	g, m := vecGraph() // back delay = 8 iterations
	var seen [][]byte
	var mu sync.Mutex
	_, err := ExecuteBlocked(g, m, vecKernels(&seen, &mu), 10, VecOptions{Block: 3})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("block 3 against an 8-iteration delay: err = %v, want a deadlock diagnosis", err)
	}
}

// TestExecuteBlockedMappingDeadlock: a schedule order that consumes before
// it produces on the same processor is fine scalar (1-iteration delay) but
// deadlocks blocked; the mapping-aware check must catch it.
func TestExecuteBlockedMappingDeadlock(t *testing.T) {
	g, m := distGraph()
	// Reverse processor 0's order: C before A creates the chain C -> A,
	// closing the cycle A -> B -> C -> A once ab's 1-iteration delay no
	// longer decouples a block of 4.
	m.Order[0] = []dataflow.ActorID{2, 0}
	var sink [][]byte
	var mu sync.Mutex
	_, err := ExecuteBlocked(g, m, distKernels(&sink, &mu), 8, VecOptions{Block: 4})
	if err == nil || !strings.Contains(err.Error(), "schedule order") {
		t.Fatalf("err = %v, want the mapping-aware deadlock diagnosis", err)
	}
}

// TestExecuteBlockedVectorKernel swaps B's scalar kernel for a native
// VectorKernel and demands the same bytes as the scalar run.
func TestExecuteBlockedVectorKernel(t *testing.T) {
	const iterations = 19
	ref := runReference(t, iterations)
	g, m := distGraph()
	var sink [][]byte
	var mu sync.Mutex
	kernels := distKernels(&sink, &mu)
	scalarB := kernels[1]
	delete(kernels, 1) // B runs only through its vector kernel
	vk := func(iter, n int, in map[dataflow.EdgeID][][]byte) (map[dataflow.EdgeID][][]byte, error) {
		out := make([][]byte, n)
		for j := 0; j < n; j++ {
			produced, err := scalarB(iter+j, map[dataflow.EdgeID][]byte{0: in[0][j]})
			if err != nil {
				return nil, err
			}
			out[j] = produced[1]
		}
		return map[dataflow.EdgeID][][]byte{1: out}, nil
	}
	_, err := ExecuteBlocked(g, m, kernels, iterations, VecOptions{
		Block:   4,
		Kernels: map[dataflow.ActorID]VectorKernel{1: vk},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !samePayloads(ref, sink) {
		t.Error("vector-kernel run differs from the scalar reference")
	}
}

// TestExecuteBlockedLocalEdges: same-processor edges stay token-granular in
// a blocked run, popped and pushed a block at a time.
func TestExecuteBlockedLocalEdges(t *testing.T) {
	g := dataflow.New("loc")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	g.AddEdge("ab", a, b, 1, 1, dataflow.EdgeSpec{TokenBytes: 2}) // same proc: local queue
	g.AddEdge("bc", b, c, 1, 1, dataflow.EdgeSpec{TokenBytes: 2}) // cross proc: slab
	m := &sched.Mapping{
		NumProcs: 2,
		Proc:     []sched.Processor{0, 0, 1},
		Order:    [][]dataflow.ActorID{{a, b}, {c}},
	}
	kernels := func(sink *[][]byte, mu *sync.Mutex) map[dataflow.ActorID]Kernel {
		return map[dataflow.ActorID]Kernel{
			a: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
				return map[dataflow.EdgeID][]byte{0: {byte(iter), byte(iter * 3)}}, nil
			},
			b: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
				return map[dataflow.EdgeID][]byte{1: {in[0][0] + 1, in[0][1] + 1}}, nil
			},
			c: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
				cp := append([]byte(nil), in[1]...)
				mu.Lock()
				*sink = append(*sink, cp)
				mu.Unlock()
				return nil, nil
			},
		}
	}
	const iterations = 11
	var ref, got [][]byte
	var mu sync.Mutex
	if _, err := Execute(g, m, kernels(&ref, &mu), iterations); err != nil {
		t.Fatal(err)
	}
	st, err := ExecuteBlocked(g, m, kernels(&got, &mu), iterations, VecOptions{Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !samePayloads(ref, got) {
		t.Error("blocked run with a local edge differs from scalar")
	}
	if st.LocalTransfers != iterations {
		t.Errorf("local transfers = %d, want %d", st.LocalTransfers, iterations)
	}
}

// runTwoNodesBlocked mirrors runTwoNodes with a blocking factor on both
// nodes.
func runTwoNodesBlocked(t *testing.T, tr transport.Transport, addr string, iterations, block int) ([][]byte, [2]*ExecStats) {
	t.Helper()
	g, m := distGraph()
	var sink [][]byte
	var mu sync.Mutex

	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr(), "unused"}

	var stats [2]*ExecStats
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			opts := DistOptions{
				Transport: tr,
				Node:      node,
				Addrs:     addrs,
				NodeOf:    []int{0, 1},
				Block:     block,
			}
			if node == 0 {
				opts.Listener = ln
			}
			stats[node], errs[node] = ExecuteDistributed(g, m, distKernels(&sink, &mu), iterations, opts)
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	return sink, stats
}

// TestExecuteDistributedBlocked: a two-node blocked run is bit-identical
// to the scalar single-process reference, and the slab packing shows in
// the message counts — each node sends one message per block instead of
// one per iteration.
func TestExecuteDistributedBlocked(t *testing.T) {
	const iterations, block = 25, 4
	const blocks = (iterations + block - 1) / block // 7, the last one partial
	ref := runReference(t, iterations)
	for _, tc := range []struct {
		name string
		tr   transport.Transport
		addr string
	}{
		{"loopback", transport.NewLoopback(), "node0"},
		{"tcp", &transport.TCP{}, "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, stats := runTwoNodesBlocked(t, tc.tr, tc.addr, iterations, block)
			if !samePayloadsReport(t, ref, got) {
				t.Errorf("blocked distributed output differs from scalar reference")
			}
			// ab's 1-iteration delay is carried at the head of node 0's
			// first slab (⌊1/4⌋ = 0 preloaded), so both nodes send one slab
			// per block and ack one per block.
			for node, st := range stats {
				if st.SPI.Messages != blocks || st.SPI.Acks != blocks {
					t.Errorf("node %d sent %d messages and acked %d, want %d slabs each way", node, st.SPI.Messages, st.SPI.Acks, blocks)
				}
			}
		})
	}
}

// TestBlockedHandshakeMismatch: a blocked node and a scalar node must
// refuse to talk — slab framing is not interoperable — and a pair blocked
// differently must be refused by the edge manifest (slab bounds differ).
func TestBlockedHandshakeMismatch(t *testing.T) {
	for _, tc := range []struct {
		name           string
		block0, block1 int
	}{
		{"blocked-vs-scalar", 4, 0},
		{"scalar-vs-blocked", 0, 4},
		{"different-blocks", 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, m := distGraph()
			var sink [][]byte
			var mu sync.Mutex
			tr := transport.NewLoopback()
			ln, err := tr.Listen("n0")
			if err != nil {
				t.Fatal(err)
			}
			addrs := []string{"n0", "unused"}
			blocks := []int{tc.block0, tc.block1}
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for node := 0; node < 2; node++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					opts := DistOptions{
						Transport: tr,
						Node:      node,
						Addrs:     addrs,
						NodeOf:    []int{0, 1},
						Block:     blocks[node],
						Retry:     transport.RetryConfig{Attempts: 2},
					}
					if node == 0 {
						opts.Listener = ln
					}
					_, errs[node] = ExecuteDistributed(g, m, distKernels(&sink, &mu), 4, opts)
				}(node)
			}
			wg.Wait()
			// The dialer (node 1) always observes the handshake rejection;
			// the acceptor may fail the same way or time out waiting.
			if errs[1] == nil {
				t.Fatalf("mismatched nodes completed: %v / %v", errs[0], errs[1])
			}
		})
	}
}
