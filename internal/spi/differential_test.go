package spi_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/demo"
	"repro/internal/sched"
	"repro/internal/signal"
	"repro/internal/spi"
	"repro/internal/transport"
)

// Differential oracle over the executor core: a random consistent graph, a
// random processor mapping and a random split of the processors over two
// nodes must produce the sink digests of the scalar in-process run in every
// execution mode — blocked in-process, distributed over loopback under a
// drawn link policy, and a standing partition deployment fired as three
// consecutive ranges. The demo
// kernels make every byte a pure function of graph, seed, actor, iteration
// and inputs, so any difference is the executor's. The reference run's
// kernels allocate every output afresh; every other run, the scalar one
// first, wraps them in recycling.

const differentialSeeds = 60

// diffRetry lets either side of a loopback pair start first.
var diffRetry = transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

type diffCase struct {
	g          *dataflow.Graph
	m          *sched.Mapping
	nodeOf     []int
	seed       uint64
	iterations int
	feedback   bool
}

// drawCase draws graph, mapping and node split from the seed. Actors sit on
// their processor in graph order — topological by construction, feedback
// edges carrying an iteration of delay — so the scalar self-timed schedule
// cannot deadlock. The iteration count is odd and no multiple of 5: both
// blocking factors end on a partial block. Wherever some processor hosts two
// actors, a forward edge with one or two iterations of delay joins two actors
// of one processor: the tokens of such an edge sit in its local queue while
// their producer fires again.
func drawCase(t *testing.T, seed uint64) diffCase {
	t.Helper()
	rng := signal.NewRNG(seed * 7919)
	spec := dataflow.RandomSpec{
		Actors:         3 + rng.Intn(5),
		ExtraEdges:     rng.Intn(5),
		MaxRepetition:  3,
		MaxExecCycles:  100,
		DynamicPercent: 30,
	}
	if seed%2 == 1 {
		spec.FeedbackEdges = 1 + rng.Intn(2)
	}
	// A feedback edge leaving the last actor leaves the graph without a
	// sink to digest; draw again.
	var g *dataflow.Graph
	for draw := seed; g == nil || len(demo.Sinks(g)) == 0; draw += 1000 {
		var err error
		if g, err = dataflow.Random(spec, draw); err != nil {
			t.Fatal(err)
		}
	}
	procs := 2 + rng.Intn(min(spec.Actors, 4)-1)
	assign := make([]int, spec.Actors)
	for i := range assign {
		if i < procs {
			assign[i] = i // every processor hosts an actor
		} else {
			assign[i] = rng.Intn(procs)
		}
	}
	if spec.Actors > procs {
		snk := procs + rng.Intn(spec.Actors-procs)
		src := rng.Intn(snk)
		assign[snk] = assign[src]
		q, err := g.RepetitionsVector()
		if err != nil {
			t.Fatal(err)
		}
		produce, consume := int(q[snk]), int(q[src]) // q[src]·q[snk] tokens an iteration
		g.AddEdge("delayed", dataflow.ActorID(src), dataflow.ActorID(snk), produce, consume,
			dataflow.EdgeSpec{Delay: (1 + rng.Intn(2)) * produce * consume, TokenBytes: 1 + rng.Intn(4)})
	}
	m, err := demo.Mapping(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf := make([]int, procs)
	nodeOf[1+rng.Intn(procs-1)] = 1 // processor 0 on node 0, one other on node 1
	for p := 1; p < procs; p++ {
		if nodeOf[p] == 0 {
			nodeOf[p] = rng.Intn(2)
		}
	}
	return diffCase{g: g, m: m, nodeOf: nodeOf, seed: seed,
		iterations: []int{7, 9, 11, 13}[rng.Intn(4)], feedback: spec.FeedbackEdges > 0}
}

// recycling wraps a kernel so that it uses every freedom the Kernel
// contract gives it with its buffers: one output is handed over in the
// largest input's buffer when it fits (an input slice may be returned as an
// output), and every other one — every output of a source actor, which has
// no input to pass through — in a per-edge buffer the next firing overwrites
// (outputs need only live until the firing's emits return). The bytes are
// the wrapped kernel's; an executor that keeps a payload by reference past
// those points — a local push without its copy — changes a digest.
func recycling(k spi.Kernel) spi.Kernel {
	own := map[dataflow.EdgeID][]byte{}
	return func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		out, err := k(iter, in)
		if err != nil {
			return nil, err
		}
		var through []byte
		for _, buf := range in {
			if cap(buf) > cap(through) {
				through = buf
			}
		}
		for eid, payload := range out {
			if through != nil && len(payload) <= cap(through) {
				out[eid], through = append(through[:0], payload...), nil
			} else {
				own[eid] = append(own[eid][:0], payload...)
				out[eid] = own[eid]
			}
		}
		return out, nil
	}
}

func (c diffCase) kernels(recycle bool) (map[dataflow.ActorID]spi.Kernel, map[string]*uint64, error) {
	digests := demo.Sinks(c.g)
	kernels, err := demo.Kernels(c.g, c.seed, digests, new(sync.Mutex))
	if recycle {
		for a, k := range kernels {
			kernels[a] = recycling(k)
		}
	}
	return kernels, digests, err
}

// inProcess runs the case on one node with the given blocking factor
// (1 = scalar), on kernels that recycle their buffers or allocate afresh.
func (c diffCase) inProcess(block int, recycle bool) (map[string]uint64, error) {
	kernels, digests, err := c.kernels(recycle)
	if err != nil {
		return nil, err
	}
	if _, err := spi.ExecuteBlocked(c.g, c.m, kernels, c.iterations, spi.VecOptions{Block: block}); err != nil {
		return nil, err
	}
	got := make(map[string]uint64, len(digests))
	for name, d := range digests {
		got[name] = *d
	}
	return got, nil
}

// distributed runs the case as two loopback nodes and XOR-folds their sink
// digests (a sink lives on one node; the other's slot stays zero). Ack
// piggybacking is local send policy, so each node draws its own; the
// resynchronization verdict is checked for equality at the
// handshake, so the run draws one. Nothing else runs a mixed pair end to end.
func (c diffCase) distributed() (map[string]uint64, error) {
	tr := transport.NewLoopback()
	addrs := []string{"diff-n0", "diff-n1"}
	errs := make([]error, 2)
	digests := make([]map[string]*uint64, 2)
	rng := signal.NewRNG(c.seed * 104729)
	resync := rng.Intn(2) == 1
	var wg sync.WaitGroup
	for node := range addrs {
		kernels, d, err := c.kernels(true)
		if err != nil {
			return nil, err
		}
		digests[node] = d
		opts := spi.DistOptions{
			Transport: tr, Node: node, Addrs: addrs, NodeOf: c.nodeOf, Retry: diffRetry,
			Resync: resync, PiggybackAcks: rng.Intn(2) == 1,
		}
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			_, errs[node] = spi.ExecuteDistributed(c.g, c.m, kernels, c.iterations, opts)
		}(node)
	}
	wg.Wait()
	got := map[string]uint64{}
	for node, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %d (resync %v): %w", node, resync, err)
		}
		for name, d := range digests[node] {
			got[name] ^= *d
		}
	}
	return got, nil
}

// partitioned opens the case as a standing two-worker deployment and fires
// it as three consecutive Run ranges.
func (c diffCase) partitioned() (map[string]uint64, error) {
	specs, err := spi.BuildPartitions(c.g, c.m, c.nodeOf, 2, 1, false)
	if err != nil {
		return nil, err
	}
	cut1 := 1 + int(c.seed)%3
	cut2 := cut1 + 1 + int(c.seed)%4
	ranges := [][2]int{{0, cut1}, {cut1, cut2 - cut1}, {cut2, c.iterations - cut2}}

	tr := transport.NewLoopback()
	addrs := []string{"diff-w0", "diff-w1"}
	errs := make([]error, 2)
	sinks := make([]*demo.PartSinks, 2)
	var wg sync.WaitGroup
	for w, spec := range specs {
		spec.Addrs, spec.Iterations = addrs, c.iterations
		kernels, s := demo.PartKernels(spec, c.seed)
		for name, k := range kernels {
			kernels[name] = recycling(k)
		}
		sinks[w] = s
		wg.Add(1)
		go func(w int, spec *spi.PartitionSpec) {
			defer wg.Done()
			pr, err := spi.OpenPartition(spec, kernels, spi.DistOptions{Transport: tr, Retry: diffRetry})
			if err != nil {
				errs[w] = err
				return
			}
			for _, r := range ranges {
				if _, errs[w] = pr.Run(r[0], r[1]); errs[w] != nil {
					break
				}
			}
			pr.Close(errs[w] == nil)
		}(w, spec)
	}
	wg.Wait()
	got := map[string]uint64{}
	for w, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", w, err)
		}
		for name, d := range sinks[w].Take() {
			got[name] ^= d
		}
	}
	return got, nil
}

// within runs one execution mode under a deadline, so a hang is a failure
// of this case and not of the whole test binary ten minutes later.
func within(t *testing.T, mode string, run func() (map[string]uint64, error)) (map[string]uint64, error) {
	t.Helper()
	type outcome struct {
		digests map[string]uint64
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		d, err := run()
		done <- outcome{d, err}
	}()
	select {
	case o := <-done:
		return o.digests, o.err
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: executor hung", mode)
		return nil, nil
	}
}

func TestDifferentialExecutors(t *testing.T) {
	for seed := uint64(1); seed <= differentialSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := drawCase(t, seed)
			want, err := within(t, "scalar", func() (map[string]uint64, error) { return c.inProcess(1, false) })
			if err != nil {
				t.Fatalf("scalar reference: %v", err)
			}
			check := func(mode string, got map[string]uint64, err error) {
				t.Helper()
				if err != nil {
					t.Errorf("%s: %v", mode, err)
					return
				}
				for name, w := range want {
					if got[name] != w {
						t.Errorf("%s: sink %s digest %#x, scalar in-process run %#x", mode, name, got[name], w)
					}
				}
			}
			for _, block := range []int{1, 2, 5} {
				mode := fmt.Sprintf("block %d", block)
				got, err := within(t, mode, func() (map[string]uint64, error) { return c.inProcess(block, true) })
				if c.feedback && block > 1 {
					// One iteration of delay on a cycle cannot cover a block.
					if err == nil || !strings.Contains(err.Error(), "deadlocks") {
						t.Errorf("%s over a one-iteration feedback delay: err = %v, want a deadlock refusal", mode, err)
					}
					continue
				}
				check(mode, got, err)
			}
			got, err := within(t, "distributed", c.distributed)
			check("distributed", got, err)
			got, err = within(t, "partitioned", c.partitioned)
			check("partitioned", got, err)
		})
	}
}

// TestDifferentialEdgePlans: one edge plan, three consumers. Over the same
// random graphs, mappings and node splits, at every blocking factor, the
// simulator's EdgePlan (Build), the spec's PartEdge (BuildPartitions) and the
// handshake's EdgeDecl (PeerDecls) of an interprocessor edge agree on
// framing, protocol and capacity — and a one-iteration feedback delay that
// cannot cover a block is refused by all three.
func TestDifferentialEdgePlans(t *testing.T) {
	for seed := uint64(1); seed <= differentialSeeds; seed++ {
		c := drawCase(t, seed)
		for _, block := range []int{1, 2, 5} {
			dep, errB := spi.Build(&spi.System{Graph: c.g, Mapping: c.m, Block: block})
			specs, errS := spi.BuildPartitions(c.g, c.m, c.nodeOf, 2, block, false)
			decls := make([]map[int][]transport.EdgeDecl, 2)
			var errD error
			for node := range decls {
				if decls[node], errD = spi.PeerDecls(c.g, c.m, c.nodeOf, node, block); errD != nil {
					break
				}
			}
			if c.feedback && block > 1 {
				for what, err := range map[string]error{"Build": errB, "BuildPartitions": errS, "PeerDecls": errD} {
					if err == nil || !strings.Contains(err.Error(), "deadlocks") {
						t.Errorf("seed %d block %d: %s: err = %v, want a deadlock refusal", seed, block, what, err)
					}
				}
				continue
			}
			if errB != nil || errS != nil || errD != nil {
				t.Fatalf("seed %d block %d: Build %v, BuildPartitions %v, PeerDecls %v", seed, block, errB, errS, errD)
			}
			if len(dep.Plans) != len(c.m.InterprocessorEdges(c.g)) {
				t.Fatalf("seed %d block %d: %d edge plans for %d interprocessor edges", seed, block, len(dep.Plans), len(c.m.InterprocessorEdges(c.g)))
			}
			for _, plan := range dep.Plans {
				e := c.g.Edge(plan.Edge)
				where := fmt.Sprintf("seed %d block %d edge %s", seed, block, e.Name)
				// The spec of each endpoint's node carries the edge.
				src, snk := c.nodeOf[c.m.Proc[e.Src]], c.nodeOf[c.m.Proc[e.Snk]]
				for _, node := range []int{src, snk} {
					var pe *spi.PartEdge
					for i := range specs[node].Edges {
						if specs[node].Edges[i].ID == uint16(plan.Edge) {
							pe = &specs[node].Edges[i]
						}
					}
					if pe == nil {
						t.Fatalf("%s: not in node %d's spec", where, node)
					}
					mode := spi.Mode(pe.Mode) // the token's; a slab is SPI_dynamic
					if pe.Block > 1 {
						mode = spi.Dynamic
					}
					if mode != plan.Mode || spi.Protocol(pe.Protocol) != plan.Protocol || int(pe.Capacity) != plan.Capacity {
						t.Errorf("%s: node %d's spec says (%v, %v, %d, block %d), Build (%v, %v, %d)", where, node,
							mode, spi.Protocol(pe.Protocol), pe.Capacity, pe.Block, plan.Mode, plan.Protocol, plan.Capacity)
					}
				}
				if src == snk {
					continue
				}
				for node, peer := range map[int]int{src: snk, snk: src} {
					var d *transport.EdgeDecl
					for i := range decls[node][peer] {
						if decls[node][peer][i].ID == uint16(plan.Edge) {
							d = &decls[node][peer][i]
						}
					}
					if d == nil {
						t.Fatalf("%s: node %d does not declare it to node %d", where, node, peer)
					}
					if spi.Mode(d.Mode) != plan.Mode || spi.Protocol(d.Protocol) != plan.Protocol || int(d.Capacity) != plan.Capacity || d.Out != (node == src) {
						t.Errorf("%s: node %d declares (%v, %v, %d, out %v), Build (%v, %v, %d)", where, node,
							spi.Mode(d.Mode), spi.Protocol(d.Protocol), d.Capacity, d.Out, plan.Mode, plan.Protocol, plan.Capacity)
					}
				}
			}
		}
	}
}
