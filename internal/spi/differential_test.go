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
// drawn link policy, and a standing partition deployment, scalar and
// blocked, fired as consecutive ranges. The demo
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

// forwardDelays are the delays, in iterations, of the drawn forward edges:
// 1, B−1, B+1 and 2B+1 for both blocking factors, so a blocked run preloads
// whole slabs, carries a partial one, or both.
var forwardDelays = []int{1, 3, 4, 5, 6, 11}

// drawCase draws graph, mapping and node split from the seed. Actors sit on
// their processor in graph order — topological by construction, feedback
// edges carrying an iteration of delay — so the scalar self-timed schedule
// cannot deadlock. The iteration count is odd and no multiple of 5: both
// blocking factors end on a partial block. A forward edge with a delay from
// forwardDelays joins two actors of different processors, and wherever some
// processor hosts two actors another joins two actors of one processor: the
// tokens of such an edge sit in its local queue while their producer fires
// again.
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
	q, err := g.RepetitionsVector()
	if err != nil {
		t.Fatal(err)
	}
	forward := func(name string, src, snk int) {
		produce, consume := int(q[snk]), int(q[src]) // q[src]·q[snk] tokens an iteration
		delay := forwardDelays[rng.Intn(len(forwardDelays))]
		g.AddEdge(name, dataflow.ActorID(src), dataflow.ActorID(snk), produce, consume,
			dataflow.EdgeSpec{Delay: delay * produce * consume, TokenBytes: 1 + rng.Intn(4)})
	}
	src := rng.Intn(procs - 1) // actors below procs sit on processors of their own
	forward("carried", src, src+1+rng.Intn(procs-src-1))
	if spec.Actors > procs {
		snk := procs + rng.Intn(spec.Actors-procs)
		src := rng.Intn(snk)
		assign[snk] = assign[src]
		forward("delayed", src, snk)
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
// (outputs need only live until the actor fires again). The bytes are
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
// digests (a sink lives on one node; the other's slot stays zero). The
// resynchronization verdict is checked for equality at the handshake, so
// the run draws one for both nodes.
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
			Resync: resync,
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

// partitioned opens the case as a standing two-worker deployment at the
// given blocking factor and fires it as consecutive Run ranges: two of whole
// blocks while they fit, then the rest, which may end inside a block.
func (c diffCase) partitioned(block int) (map[string]uint64, error) {
	specs, err := spi.BuildPartitions(c.g, c.m, c.nodeOf, 2, block, false)
	if err != nil {
		return nil, err
	}
	var ranges [][2]int
	for base, i := 0, 0; base < c.iterations; i++ {
		n := c.iterations - base
		if i < 2 {
			n = min(n, block*(1+int(c.seed)%(3+i)))
		}
		ranges = append(ranges, [2]int{base, n})
		base += n
	}

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
				mode = fmt.Sprintf("partitioned, block %d", block)
				got, err = within(t, mode, func() (map[string]uint64, error) { return c.partitioned(block) })
				check(mode, got, err)
			}
			got, err := within(t, "distributed", c.distributed)
			check("distributed", got, err)
		})
	}
}

// TestDifferentialEdgePlans: one edge plan, three consumers. Over the same
// random graphs, mappings and node splits, at every blocking factor, the
// spec's PartEdge (BuildPartitions) and the handshake's EdgeDecl
// (PeerDecls) of an interprocessor edge agree on framing, protocol and
// capacity, and at block 1 with the simulator's EdgePlan (Build) too — and
// a one-iteration feedback delay that cannot cover a block is refused.
func TestDifferentialEdgePlans(t *testing.T) {
	for seed := uint64(1); seed <= differentialSeeds; seed++ {
		c := drawCase(t, seed)
		dep, err := spi.Build(&spi.System{Graph: c.g, Mapping: c.m})
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		if len(dep.Plans) != len(c.m.InterprocessorEdges(c.g)) {
			t.Fatalf("seed %d: %d edge plans for %d interprocessor edges", seed, len(dep.Plans), len(c.m.InterprocessorEdges(c.g)))
		}
		for _, block := range []int{1, 2, 5} {
			specs, errS := spi.BuildPartitions(c.g, c.m, c.nodeOf, 2, block, false)
			decls := make([]map[int][]transport.EdgeDecl, 2)
			var errD error
			for node := range decls {
				if decls[node], errD = spi.PeerDecls(c.g, c.m, c.nodeOf, node, block); errD != nil {
					break
				}
			}
			if c.feedback && block > 1 {
				for what, err := range map[string]error{"BuildPartitions": errS, "PeerDecls": errD} {
					if err == nil || !strings.Contains(err.Error(), "deadlocks") {
						t.Errorf("seed %d block %d: %s: err = %v, want a deadlock refusal", seed, block, what, err)
					}
				}
				continue
			}
			if errS != nil || errD != nil {
				t.Fatalf("seed %d block %d: BuildPartitions %v, PeerDecls %v", seed, block, errS, errD)
			}
			for _, plan := range dep.Plans {
				e := c.g.Edge(plan.Edge)
				where := fmt.Sprintf("seed %d block %d edge %s", seed, block, e.Name)
				// The spec of each endpoint's node carries the edge; at block 1
				// it is Build's plan, and in a blocked run the source's spec is
				// the reference.
				src, snk := c.nodeOf[c.m.Proc[e.Src]], c.nodeOf[c.m.Proc[e.Snk]]
				refMode, refProto, refCap, refWhat := plan.Mode, plan.Protocol, plan.Capacity, "Build"
				for i, node := range []int{src, snk} {
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
					if i == 0 && block > 1 {
						refMode, refProto, refCap = mode, spi.Protocol(pe.Protocol), int(pe.Capacity)
						refWhat = fmt.Sprintf("node %d's spec", src)
					}
					if mode != refMode || spi.Protocol(pe.Protocol) != refProto || int(pe.Capacity) != refCap {
						t.Errorf("%s: node %d's spec says (%v, %v, %d, block %d), %s (%v, %v, %d)", where, node,
							mode, spi.Protocol(pe.Protocol), pe.Capacity, pe.Block, refWhat, refMode, refProto, refCap)
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
					if spi.Mode(d.Mode) != refMode || spi.Protocol(d.Protocol) != refProto || int(d.Capacity) != refCap || d.Out != (node == src) {
						t.Errorf("%s: node %d declares (%v, %v, %d, out %v), %s (%v, %v, %d)", where, node,
							spi.Mode(d.Mode), spi.Protocol(d.Protocol), d.Capacity, d.Out, refWhat, refMode, refProto, refCap)
					}
				}
			}
		}
	}
}
