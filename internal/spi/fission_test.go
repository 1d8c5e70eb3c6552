package spi

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Bit-identity tests for automatic actor fission: a fissioned graph — any
// k, any transport, any placement — must reproduce the unfissioned run's
// sink digests exactly. Transparent replication mode makes that checkable
// with the partGraph rig: every replica runs the original kernel and the
// gather reassembles chunks, so only the plumbing is under test.

// TestSplitPayloadRoundtrip: for random token sizes, worker counts, token
// counts (not necessarily divisible by k), and trailing partial-token
// bytes, the chunks follow dataflow.SplitCounts with the last worker
// absorbing the tail, and concatenation reproduces the payload exactly.
func TestSplitPayloadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 3000; trial++ {
		tb := 1 + rng.Intn(9)
		k := 1 + rng.Intn(8)
		tokens := rng.Intn(50)
		extra := rng.Intn(tb) // partial trailing token
		p := make([]byte, tokens*tb+extra)
		rng.Read(p)
		chunks := SplitPayload(p, tb, k)
		if len(chunks) != k {
			t.Fatalf("SplitPayload gave %d chunks, want %d", len(chunks), k)
		}
		counts := dataflow.SplitCounts(tokens, k)
		for i := 0; i < k-1; i++ {
			if len(chunks[i]) != counts[i]*tb {
				t.Fatalf("tb=%d k=%d tokens=%d: chunk %d has %d bytes, want %d",
					tb, k, tokens, i, len(chunks[i]), counts[i]*tb)
			}
		}
		if len(chunks[k-1]) != counts[k-1]*tb+extra {
			t.Fatalf("tb=%d k=%d tokens=%d extra=%d: last chunk has %d bytes, want %d",
				tb, k, tokens, extra, len(chunks[k-1]), counts[k-1]*tb+extra)
		}
		if !bytes.Equal(ConcatChunks(chunks), p) {
			t.Fatalf("tb=%d k=%d tokens=%d: concat does not reproduce payload", tb, k, tokens)
		}
	}
}

// TestScatterSendSplitGatherConcat drives the fission stages' payload path
// end to end over the runtime with token counts that do not divide evenly:
// SplitPayload's chunks go out on one dynamic edge per worker, each worker
// echoes its chunk onto a gather edge, and ConcatChunks must reassemble the
// original payload token-exactly for random k and counts.
func TestScatterSendSplitGatherConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(7)
		tb := 1 + rng.Intn(6)
		tokens := rng.Intn(30)
		payload := make([]byte, tokens*tb)
		rng.Read(payload)

		rt := NewRuntime()
		edges := func(base EdgeID) ([]*Sender, []*Receiver) {
			tx, rx := make([]*Sender, k), make([]*Receiver, k)
			for i := range tx {
				var err error
				tx[i], rx[i], err = rt.Init(EdgeConfig{ID: base + EdgeID(i), Mode: Dynamic, MaxBytes: len(payload) + tb, Protocol: UBS})
				if err != nil {
					t.Fatal(err)
				}
			}
			return tx, rx
		}
		scTx, scRx := edges(0)
		gaTx, gaRx := edges(100)
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p, err := scRx[i].Receive()
				if err != nil {
					t.Errorf("worker %d recv: %v", i, err)
					return
				}
				if err := gaTx[i].Send(p); err != nil {
					t.Errorf("worker %d send: %v", i, err)
				}
			}(i)
		}
		for i, c := range SplitPayload(payload, tb, k) {
			if err := scTx[i].Send(c); err != nil {
				t.Fatal(err)
			}
		}
		chunks := make([][]byte, k)
		for i, rx := range gaRx {
			var err error
			if chunks[i], err = rx.Receive(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		if got := ConcatChunks(chunks); !bytes.Equal(got, payload) {
			t.Fatalf("k=%d tb=%d tokens=%d: reassembly mismatch (%d bytes vs %d)",
				k, tb, tokens, len(got), len(payload))
		}
	}
}

// fissionPartPlan fissions partGraph's stateless actor C and extends the
// mapping, returning everything a run needs.
func fissionPartPlan(t *testing.T, k int) (*dataflow.FissionPlan, *sched.Mapping) {
	t.Helper()
	g, m := partGraph()
	c, ok := g.ActorByName("C")
	if !ok {
		t.Fatal("partGraph lost actor C")
	}
	plan, err := dataflow.Fission(g, c, dataflow.FissionOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := sched.ExtendFission(m, plan)
	if err != nil {
		t.Fatal(err)
	}
	return plan, fm
}

// TestFissionExecuteTransparent checks bit-identity of the monolithic
// executor over the fissioned graph for several replica counts, including
// k=1 (degenerate) and counts that do not divide the token counts.
func TestFissionExecuteTransparent(t *testing.T) {
	const iterations = 12
	ref, _ := partReference(t, iterations)
	for _, k := range []int{1, 2, 3, 5} {
		k := k
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			plan, fm := fissionPartPlan(t, k)
			sinks := &partTestSinks{d: map[string]uint64{}}
			byID, _ := partTestKernels(plan.Source, 7, sinks)
			fk, err := FissionKernels(plan, byID)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Execute(plan.Graph, fm, fk, iterations); err != nil {
				t.Fatal(err)
			}
			got := sinks.snapshot()
			for name, w := range ref {
				if got[name] != w {
					t.Errorf("sink %s digest = %#x, want %#x", name, got[name], w)
				}
			}
		})
	}
}

// TestFissionExecuteDistributed spreads the fissioned graph's processors
// over two in-process nodes — replicas on both — with blocked execution
// and resynchronization on, and checks sink digests against the
// unfissioned monolithic run. This is the composition the tentpole
// promises: fission output is an ordinary graph+mapping that the
// networked executor runs unchanged.
func TestFissionExecuteDistributed(t *testing.T) {
	const iterations = 12
	const k = 3
	ref, _ := partReference(t, iterations)
	plan, fm := fissionPartPlan(t, k)
	if err := plan.Graph.CheckBlock(2); err != nil {
		t.Fatal(err)
	}

	// 6 processors (3 source + 3 replicas) across two nodes.
	nodeOf := []int{0, 1, 0, 1, 0, 1}
	if len(nodeOf) != fm.NumProcs {
		t.Fatalf("nodeOf covers %d procs, mapping has %d", len(nodeOf), fm.NumProcs)
	}
	tr := transport.NewLoopback()
	ln, err := tr.Listen("fiss-n0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln1, err := tr.Listen("fiss-n1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln1.Close()
	addrs := []string{ln.Addr(), ln1.Addr()}
	lns := []transport.Listener{ln, ln1}

	sinks := &partTestSinks{d: map[string]uint64{}}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			byID, _ := partTestKernels(plan.Source, 7, sinks)
			fk, err := FissionKernels(plan, byID)
			if err != nil {
				errs[node] = err
				return
			}
			_, errs[node] = ExecuteDistributed(plan.Graph, fm, fk, iterations, DistOptions{
				Transport: tr,
				Node:      node,
				Addrs:     addrs,
				NodeOf:    nodeOf,
				Listener:  lns[node],
				Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond,
					MaxDelay: 5 * time.Millisecond},
				Block:  2,
				Resync: true,
			})
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	got := sinks.snapshot()
	for name, w := range ref {
		if got[name] != w {
			t.Errorf("sink %s digest = %#x, want %#x", name, got[name], w)
		}
	}
}

// TestFissionPartitionExecution stamps the fissioned graph through
// BuildPartitions/OpenPartition — the migration substrate — with the
// replicas spread over three workers, and checks bit-identity with the unfissioned run.
func TestFissionPartitionExecution(t *testing.T) {
	const iterations = 10
	const k = 3
	ref, _ := partReference(t, iterations)
	plan, fm := fissionPartPlan(t, k)

	// procs: 0(A,D) 1(B) 2(C scatter + gather) 3..5 replicas.
	workerOf := []int{0, 1, 2, 0, 1, 2}
	workers := 3
	specs, err := BuildPartitions(plan.Graph, fm, workerOf, workers, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewLoopback()
	addrs := make([]string, workers)
	lns := make([]transport.Listener, workers)
	for w := 0; w < workers; w++ {
		ln, err := tr.Listen(fmt.Sprintf("fisspart-w%d", w))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[w], lns[w] = ln.Addr(), ln
	}
	sinks := &partTestSinks{d: map[string]uint64{}}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		spec := specs[w]
		spec.BaseIter, spec.Iterations, spec.Addrs = 0, iterations, addrs
		byID, _ := partTestKernels(plan.Source, 7, sinks)
		fk, err := FissionKernels(plan, byID)
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]Kernel{}
		for id, kern := range fk {
			byName[plan.Graph.Actor(id).Name] = kern
		}
		opts := DistOptions{
			Transport: tr, Listener: lns[w],
			Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond,
				MaxDelay: 5 * time.Millisecond},
		}
		wg.Add(1)
		go func(w int, spec *PartitionSpec, byName map[string]Kernel, opts DistOptions) {
			defer wg.Done()
			_, errs[w] = coldEpoch(spec, byName, opts)
		}(w, spec, byName, opts)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	got := sinks.snapshot()
	for name, w := range ref {
		if got[name] != w {
			t.Errorf("sink %s digest = %#x, want %#x", name, got[name], w)
		}
	}
}
