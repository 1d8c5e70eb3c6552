package spi

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Tests for the one rule of blocked runs: every cross-processor edge carries
// consumer-aligned slabs, whatever its delay. A delay d preloads ⌊d/B⌋ full
// slabs and the producer carries the other d mod B tokens at the head of its
// next slab, so the edge moves ⌊d/B⌋ + ⌈n/B⌉ messages in n iterations.

// carryGraph joins a producer P and a consumer C on two processors by one
// edge "pc" with d iterations of delay, of static (fixed 5-byte) or dynamic
// (up to 5-byte) tokens.
func carryGraph(d int, dynamic bool) (*dataflow.Graph, *sched.Mapping) {
	g := dataflow.New("carry")
	p := g.AddActor("P", 1)
	c := g.AddActor("C", 1)
	g.AddEdge("pc", p, c, 1, 1, dataflow.EdgeSpec{TokenBytes: 5, Delay: d,
		ProduceDynamic: dynamic, ConsumeDynamic: dynamic})
	m := &sched.Mapping{NumProcs: 2, Proc: []sched.Processor{0, 1},
		Order: [][]dataflow.ActorID{{p}, {c}}}
	return g, m
}

// carryKernels: P emits carryToken(iter) (static tokens are padded on the
// wire), C folds the iteration and every byte it reads into *digest
// (carryFold).
func carryKernels(digest *uint64) map[dataflow.ActorID]Kernel {
	return map[dataflow.ActorID]Kernel{
		0: func(iter int, _ map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			return map[dataflow.EdgeID][]byte{0: carryToken(iter)}, nil
		},
		1: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			carryFold(digest, iter, in[0])
			return nil, nil
		},
	}
}

// carryToken is P's output at iter: 1 + iter%5 bytes drawn from the
// iteration.
func carryToken(iter int) []byte {
	out := make([]byte, 1+iter%5)
	for i := range out {
		out[i] = byte(iter*7 + i + 1)
	}
	return out
}

func carryFold(digest *uint64, iter int, tok []byte) {
	*digest = (*digest ^ uint64(iter)) * 1099511628211
	for _, v := range tok {
		*digest = (*digest ^ uint64(v)) * 1099511628211
	}
	*digest += uint64(len(tok))
}

// carryOverLoopback runs the carry graph as two loopback nodes, P's and C's,
// and returns C's digest and the message count of P's node.
func carryOverLoopback(t *testing.T, g *dataflow.Graph, m *sched.Mapping, n, block int) (uint64, int64) {
	t.Helper()
	tr := transport.NewLoopback()
	addrs := []string{"carry0", "carry1"}
	var digest uint64
	kernels := carryKernels(&digest)
	var stats [2]*ExecStats
	errs := make(chan error, 2)
	for node := range addrs {
		go func(node int) {
			var err error
			stats[node], err = ExecuteDistributed(g, m, kernels, n, DistOptions{
				Transport: tr, Node: node, Addrs: addrs, Block: block,
				Retry: transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			})
			errs <- err
		}(node)
	}
	for range addrs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return digest, stats[0].SPI.Messages
}

// TestCarryTable: for d ∈ {1, B−1, B+1, 2B+1}, B ∈ {2, 5, 16}, static and
// dynamic tokens, and runs of 3B and 3B+1 iterations, the blocked run — in
// process and over loopback — reads the bytes the scalar run reads and moves
// ⌊d/B⌋ + ⌈n/B⌉ messages on the edge.
func TestCarryTable(t *testing.T) {
	for _, block := range []int{2, 5, 16} {
		delays := []int{1, block - 1, block + 1, 2*block + 1}
		if block == 2 {
			delays = delays[1:] // B−1 is 1
		}
		for _, d := range delays {
			for _, dynamic := range []bool{false, true} {
				for _, n := range []int{3 * block, 3*block + 1} {
					t.Run(fmt.Sprintf("B%d/d%d/dynamic=%v/n%d", block, d, dynamic, n), func(t *testing.T) {
						g, m := carryGraph(d, dynamic)
						var want uint64
						if _, err := Execute(g, m, carryKernels(&want), n); err != nil {
							t.Fatal(err)
						}
						msgs := int64(d/block + (n+block-1)/block)
						var got uint64
						st, err := ExecuteBlocked(g, m, carryKernels(&got), n, VecOptions{Block: block})
						if err != nil {
							t.Fatal(err)
						}
						if got != want || st.SPI.Messages != msgs {
							t.Errorf("in process: digest %#x, %d messages; scalar %#x, want %d messages", got, st.SPI.Messages, want, msgs)
						}
						if got, sent := carryOverLoopback(t, g, m, n, block); got != want || sent != msgs {
							t.Errorf("over loopback: digest %#x, %d messages; scalar %#x, want %d messages", got, sent, want, msgs)
						}
					})
				}
			}
		}
	}
}

// countingLinks is the link provider of a producer running alone: its one
// link counts the DATA messages it is handed and acknowledges each at once.
type countingLinks struct {
	h    transport.Handler
	sent atomic.Int64
}

func (c *countingLinks) Connect(_ int, _ []transport.EdgeDecl, h transport.Handler) (MessageLink, error) {
	c.h = h
	return c, nil
}

func (c *countingLinks) Finish(bool) {}

func (c *countingLinks) SendBuffer(edge uint16, buf *[]byte) error {
	transport.Recycle(buf)
	c.sent.Add(1)
	c.h.HandleAck(edge, 1)
	return nil
}

func (c *countingLinks) SendAck(uint16, uint32) error { return nil }
func (c *countingLinks) SendFin(uint16) error         { return nil }

// TestCarrySendsOncePerBlock: a blocked producer sends one message per block
// firing, after its kernel calls — never from inside them, where the slab a
// carry completes fills — and the final partial block sends its short slab.
// P's kernel reads the link's count at every call: it is the same for the B
// calls of a block and one more at the next block.
func TestCarrySendsOncePerBlock(t *testing.T) {
	const block, n = 4, 3*4 + 1
	for _, d := range []int{1, block + 1} {
		g, m := carryGraph(d, false)
		links := &countingLinks{}
		var digest uint64
		kernels := carryKernels(&digest)
		seen := make([]int64, 0, n)
		produce := kernels[0]
		kernels[0] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			seen = append(seen, links.sent.Load())
			return produce(iter, in)
		}
		if _, err := ExecuteDistributed(g, m, kernels, n, DistOptions{
			Addrs: []string{"p", "c"}, Block: block, Links: links,
		}); err != nil {
			t.Fatal(err)
		}
		for iter, got := range seen {
			if want := int64(d/block + iter/block); got != want {
				t.Errorf("d %d: iteration %d saw %d messages sent, want %d", d, iter, got, want)
			}
		}
		if got, want := links.sent.Load(), int64(d/block+(n+block-1)/block); got != want {
			t.Errorf("d %d: %d messages sent, want %d", d, got, want)
		}
	}
}

// TestCarryPartialRunEndsDeployment: a standing blocked deployment serves a
// range that ends inside a block — its open slabs go out short, and the
// consumer reads the scalar run's bytes — and refuses every later range,
// naming the block and the partial range.
func TestCarryPartialRunEndsDeployment(t *testing.T) {
	const block = 4
	g, m := carryGraph(1, true)
	var want uint64
	if _, err := Execute(g, m, carryKernels(&want), 11); err != nil {
		t.Fatal(err)
	}
	specs, err := BuildPartitions(g, m, []int{0, 0}, 1, block, false)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	byID := carryKernels(&got)
	pr, err := OpenPartition(specs[0], map[string]Kernel{"P": byID[0], "C": byID[1]}, DistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close(false)
	for _, r := range [][2]int{{0, 8}, {8, 3}} {
		if err := pr.Run(r[0], r[1]); err != nil {
			t.Fatalf("Run(%d, %d): %v", r[0], r[1], err)
		}
	}
	if got != want {
		t.Errorf("digest %#x after 11 iterations, scalar run %#x", got, want)
	}
	err = pr.Run(11, 4)
	if err == nil || !strings.Contains(err.Error(), "8..10") || !strings.Contains(err.Error(), "4-iteration block") {
		t.Errorf("Run after a partial range: %v, want a refusal naming 8..10 and the 4-iteration block", err)
	}
}

// localCarryGraph is carryGraph with P and C on one processor, P first:
// the edge is a local queue, which holds d + B tokens when C gathers.
func localCarryGraph(d int, dynamic bool) (*dataflow.Graph, *sched.Mapping) {
	g, m := carryGraph(d, dynamic)
	m.NumProcs, m.Proc, m.Order = 1, []sched.Processor{0, 0}, [][]dataflow.ActorID{{0, 1}}
	return g, m
}

// localCarryOracle is, without the executor, what C folds in n ≥ d
// iterations of the local carry graph — at iteration i, the empty delay
// token while i < d, else P's token of i − d, padded when static — and the
// d tokens queued at the end.
func localCarryOracle(n, d int, dynamic bool) (uint64, [][]byte) {
	tok := func(iter int) []byte {
		b := carryToken(iter)
		if !dynamic {
			b = append(b, make([]byte, 5-len(b))...)
		}
		return b
	}
	var digest uint64
	for iter := range n {
		var in []byte
		if iter >= d {
			in = tok(iter - d)
		}
		carryFold(&digest, iter, in)
	}
	var queued [][]byte
	for iter := n - d; iter < n; iter++ {
		queued = append(queued, tok(iter))
	}
	return digest, queued
}

// TestCarryLocalQueue: a same-processor edge whose queue holds more than
// one block (delay d > B, d mod B ≠ 0) stays FIFO. The consumer reads the
// oracle's bytes in a static run at B = 1 and at B = 4, and in a standing
// deployment over one Run and over consecutive ones, and the checkpoint
// holds the oracle's last d tokens. A gather whose tokens alias queue slots
// that the shift or a later emit overwrites reads later tokens in their
// place, or queues one buffer twice.
func TestCarryLocalQueue(t *testing.T) {
	const n = 24
	for _, block := range []int{1, 4} {
		for _, d := range []int{6, 9} {
			for _, dynamic := range []bool{false, true} {
				t.Run(fmt.Sprintf("B%d/d%d/dynamic=%v", block, d, dynamic), func(t *testing.T) {
					g, m := localCarryGraph(d, dynamic)
					want, wantQueued := localCarryOracle(n, d, dynamic)
					var got uint64
					if _, err := ExecuteBlocked(g, m, carryKernels(&got), n, VecOptions{Block: block}); err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("static run: digest %#x, oracle %#x", got, want)
					}
					spec, err := BuildPartition(g, m, nil, 1, 0, block, false)
					if err != nil {
						t.Fatal(err)
					}
					for _, ranges := range [][]int{{n}, {8, 4, 12}} {
						var got uint64
						byID := carryKernels(&got)
						pr, err := OpenPartition(spec, map[string]Kernel{"P": byID[0], "C": byID[1]}, DistOptions{})
						if err != nil {
							t.Fatal(err)
						}
						base := 0
						for _, r := range ranges {
							if err := pr.Run(base, r); err != nil {
								t.Fatalf("Run(%d, %d): %v", base, r, err)
							}
							base += r
						}
						queued := pr.Checkpoint().Tails[0]
						pr.Close(true)
						if got != want {
							t.Errorf("standing runs %v: digest %#x, oracle %#x", ranges, got, want)
						}
						if !slices.EqualFunc(queued, wantQueued, bytes.Equal) {
							t.Errorf("standing runs %v: checkpoint %v, oracle %v", ranges, queued, wantQueued)
						}
					}
				})
			}
		}
	}
}
