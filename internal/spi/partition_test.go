package spi

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Bit-identity tests for partition-scoped execution: any placement of the
// mapped processors over any number of workers, with any epoching and any
// mid-run re-placement (simulated migration via Tails handoff), must
// produce exactly the sink digests of the monolithic Execute run.

// partGraph builds a 4-actor, 3-processor graph exercising every edge
// class the partition executor distinguishes: a cross-processor static
// edge with delay (zero-block preloads), a cross-processor dynamic edge
// with delay (empty preloads), a cross-processor static edge without
// delay, and a same-processor delayed edge (local queue).
func partGraph() (*dataflow.Graph, *sched.Mapping) {
	g := dataflow.New("part")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	d := g.AddActor("D", 1)
	g.AddEdge("ab", a, b, 1, 1, dataflow.EdgeSpec{TokenBytes: 4, Delay: 2})
	g.AddEdge("bc", b, c, 1, 1, dataflow.EdgeSpec{TokenBytes: 6, Delay: 1,
		ProduceDynamic: true, ConsumeDynamic: true})
	g.AddEdge("cd", c, d, 1, 1, dataflow.EdgeSpec{TokenBytes: 3})
	g.AddEdge("ad", a, d, 1, 1, dataflow.EdgeSpec{TokenBytes: 5, Delay: 1})
	m := &sched.Mapping{
		NumProcs: 3,
		Proc:     []sched.Processor{0, 1, 2, 0},
		Order:    [][]dataflow.ActorID{{a, d}, {b}, {c}},
	}
	return g, m
}

// partTestSinks accumulates sink digests across workers and epochs; every
// epoch in these tests commits, so the XOR fold composes to the digest of
// the unpartitioned run.
type partTestSinks struct {
	mu sync.Mutex
	d  map[string]uint64
}

func (s *partTestSinks) snapshot() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]uint64{}
	for k, v := range s.d {
		out[k] = v
	}
	return out
}

// partTestKernels builds deterministic demo-style kernels for partGraph,
// keyed both by actor ID (for Execute) and name (for a spec's runs).
func partTestKernels(g *dataflow.Graph, seed uint64, sinks *partTestSinks) (
	map[dataflow.ActorID]Kernel, map[string]Kernel) {
	byID := map[dataflow.ActorID]Kernel{}
	byName := map[string]Kernel{}
	for _, aid := range g.Actors() {
		aid := aid
		name := g.Actor(aid).Name
		ins := append([]dataflow.EdgeID(nil), g.In(aid)...)
		for i := 1; i < len(ins); i++ { // ascending edge-ID fold order
			for j := i; j > 0 && ins[j] < ins[j-1]; j-- {
				ins[j], ins[j-1] = ins[j-1], ins[j]
			}
		}
		outs := g.Out(aid)
		k := func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|%s|%d|%d", g.Name(), name, iter, seed)
			for _, id := range ins {
				fmt.Fprintf(h, "|%s:", g.Edge(id).Name)
				h.Write(in[id])
			}
			state := h.Sum64()
			if len(outs) == 0 {
				sinks.mu.Lock()
				sinks.d[name] ^= state * uint64(iter*2654435761+1)
				sinks.mu.Unlock()
				return nil, nil
			}
			out := map[dataflow.EdgeID][]byte{}
			for _, id := range outs {
				e := g.Edge(id)
				n := e.TokenBytes * e.Produce.Rate
				if e.Dynamic() && n > 1 {
					n = 1 + int(state%uint64(n))
				}
				buf := make([]byte, n)
				s := state ^ uint64(id)
				for i := range buf {
					s ^= s << 13
					s ^= s >> 7
					s ^= s << 17
					buf[i] = byte(s)
				}
				out[id] = buf
			}
			return out, nil
		}
		byID[aid] = k
		byName[name] = k
	}
	return byID, byName
}

// partReference runs the monolithic executor and returns the sink digests
// and per-actor firings the partitioned runs must reproduce exactly.
func partReference(t *testing.T, iterations int) (map[string]uint64, map[string]int) {
	t.Helper()
	g, m := partGraph()
	sinks := &partTestSinks{d: map[string]uint64{}}
	byID, _ := partTestKernels(g, 7, sinks)
	st, err := Execute(g, m, byID, iterations)
	if err != nil {
		t.Fatal(err)
	}
	return sinks.snapshot(), st.ActorFirings
}

// coldEpoch runs one epoch as a standing deployment of its own: open, run the
// spec's iteration range, close — gracefully when the run succeeded, so
// every token it sent is delivered — and returns the checkpoint at its end.
func coldEpoch(spec *PartitionSpec, kernels map[string]Kernel, opts DistOptions) (*PartResult, error) {
	pr, err := OpenPartition(spec, kernels, opts)
	if err != nil {
		return nil, err
	}
	if err := pr.Run(spec.BaseIter, spec.Iterations); err != nil {
		pr.Close(false)
		return nil, err
	}
	res := pr.Checkpoint()
	pr.Close(true)
	return res, nil
}

// runPartitionedEpochs drives the full coordinator loop in miniature:
// partition per the epoch's placement, thread Tails across
// epoch boundaries (exactly what a live migration ships), run every worker
// over a fresh per-epoch loopback, and accumulate sink digests. placement
// maps an epoch index to (workerOf, workers).
func runPartitionedEpochs(t *testing.T, iterations, epochLen int,
	placement func(epoch int) ([]int, int)) (map[string]uint64, map[string]int) {
	t.Helper()
	g, m := partGraph()
	sinks := &partTestSinks{d: map[string]uint64{}}
	tails := map[uint16][][]byte{} // a fresh spec carries iteration 0's own
	firings := map[string]int{}
	for base, epoch := 0, 0; base < iterations; epoch++ {
		n := epochLen
		if left := iterations - base; n > left {
			n = left
		}
		workerOf, workers := placement(epoch)
		specs, err := BuildPartitions(g, m, workerOf, workers, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh per-epoch transport and listeners: the epoch fence.
		tr := transport.NewLoopback()
		addrs := make([]string, workers)
		lns := make([]transport.Listener, workers)
		for w := 0; w < workers; w++ {
			ln, err := tr.Listen(fmt.Sprintf("epoch%d-w%d", epoch, w))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			addrs[w] = ln.Addr()
			lns[w] = ln
		}
		results := make([]*PartResult, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			spec := specs[w]
			spec.BaseIter, spec.Iterations, spec.Addrs = base, n, addrs
			for id := range spec.Preload {
				if tl, ok := tails[id]; ok {
					spec.Preload[id] = tl
				}
			}
			_, byName := partTestKernels(g, 7, sinks)
			opts := DistOptions{
				Transport: tr, Listener: lns[w],
				Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond,
					MaxDelay: 5 * time.Millisecond},
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				results[w], errs[w] = coldEpoch(spec, byName, opts)
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("epoch %d worker %d: %v", epoch, w, err)
			}
		}
		for _, res := range results {
			for id, tl := range res.Tails {
				tails[id] = tl
			}
			for name, nf := range res.Firings {
				firings[name] += nf
			}
		}
		base += n
	}
	return sinks.snapshot(), firings
}

func checkPartDigests(t *testing.T, got, want map[string]uint64, gotF, wantF map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sink digests = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("sink %s digest = %#x, want %#x", name, got[name], w)
		}
	}
	for name, w := range wantF {
		if gotF[name] != w {
			t.Errorf("actor %s fired %d times, want %d", name, gotF[name], w)
		}
	}
}

// TestExecutePartitionMatchesExecute runs one epoch spread over three
// workers (one processor each) and checks the sink digests and firing
// counts are bit-identical to the monolithic run.
func TestExecutePartitionMatchesExecute(t *testing.T) {
	const iterations = 12
	ref, refF := partReference(t, iterations)
	got, gotF := runPartitionedEpochs(t, iterations, iterations,
		func(int) ([]int, int) { return []int{0, 1, 2}, 3 })
	checkPartDigests(t, got, ref, gotF, refF)
}

// TestExecutePartitionColocated places all processors on one worker: every
// cross-processor edge becomes an in-process SPI edge (Out and In both
// hosted), no links at all.
func TestExecutePartitionColocated(t *testing.T) {
	const iterations = 10
	ref, refF := partReference(t, iterations)
	got, gotF := runPartitionedEpochs(t, iterations, iterations,
		func(int) ([]int, int) { return []int{0, 0, 0}, 1 })
	checkPartDigests(t, got, ref, gotF, refF)
}

// TestExecutePartitionMigration re-places processors at every epoch
// boundary — including shrinking from three workers to two and moving B's
// processor — with Tails threaded across, the
// exact data a live migration ships. Digests must not move by a bit.
func TestExecutePartitionMigration(t *testing.T) {
	const iterations = 13
	ref, refF := partReference(t, iterations)
	got, gotF := runPartitionedEpochs(t, iterations, 5, func(epoch int) ([]int, int) {
		switch epoch % 3 {
		case 0:
			return []int{0, 1, 2}, 3
		case 1:
			return []int{1, 0, 1}, 2 // B's processor migrates to worker 0
		default:
			return []int{0, 0, 1}, 2
		}
	})
	checkPartDigests(t, got, ref, gotF, refF)
}

// TestExecutePartitionShortEpochs runs one-iteration epochs — shorter than
// the deepest delay — so edge tails must carry unconsumed preloads across
// boundaries, with a placement rotation every epoch.
func TestExecutePartitionShortEpochs(t *testing.T) {
	const iterations = 6
	ref, refF := partReference(t, iterations)
	got, gotF := runPartitionedEpochs(t, iterations, 1, func(epoch int) ([]int, int) {
		if epoch%2 == 0 {
			return []int{0, 1, 0}, 2
		}
		return []int{1, 0, 1}, 2
	})
	checkPartDigests(t, got, ref, gotF, refF)
}

// TestExecutePartitionResume severs the data link mid-epoch on a worker
// that holds nothing but its partition spec; RESUME replay must recover
// and keep the digests bit-identical — partition-scoped manifests lose no
// resumption capability.
func TestExecutePartitionResume(t *testing.T) {
	const iterations = 40
	ref, refF := partReference(t, iterations)

	g, m := partGraph()
	sinks := &partTestSinks{d: map[string]uint64{}}
	workerOf, workers := []int{0, 1, 0}, 2
	specs, err := BuildPartitions(g, m, workerOf, workers, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ft := transport.NewFaultTransport(transport.NewLoopback(), transport.FaultConfig{
		Seed: 42, SeverAt: []int{15, 33}, SkipFrames: 6,
	})
	addrs := make([]string, workers)
	lns := make([]transport.Listener, workers)
	for w := 0; w < workers; w++ {
		ln, err := ft.Listen(fmt.Sprintf("resume-w%d", w))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[w], lns[w] = ln.Addr(), ln
	}
	results := make([]*PartResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		spec := specs[w]
		spec.BaseIter, spec.Iterations, spec.Addrs = 0, iterations, addrs
		_, byName := partTestKernels(g, 7, sinks)
		opts := DistOptions{
			Transport: ft, Listener: lns[w],
			Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond,
				MaxDelay: 5 * time.Millisecond},
			Reconnect: chaosReconnect(20 * time.Second),
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = coldEpoch(spec, byName, opts)
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("partition resume run wedged")
	}
	firings := map[string]int{}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v (faults: %+v)", w, err, ft.Stats())
		}
		for name, n := range results[w].Firings {
			firings[name] += n
		}
	}
	if ft.Stats().Severs == 0 {
		t.Fatal("no sever landed; chaos schedule is inert")
	}
	checkPartDigests(t, sinks.snapshot(), ref, firings, refF)
}

// TestExecutePartitionAbort cancels a two-worker epoch mid-run: both
// workers must unwind promptly with the context error — the coordinator's
// Abort path.
func TestExecutePartitionAbort(t *testing.T) {
	g, m := partGraph()
	sinks := &partTestSinks{d: map[string]uint64{}}
	workerOf, workers := []int{0, 1, 0}, 2
	specs, err := BuildPartitions(g, m, workerOf, workers, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewLoopback()
	addrs := make([]string, workers)
	lns := make([]transport.Listener, workers)
	for w := 0; w < workers; w++ {
		ln, err := tr.Listen(fmt.Sprintf("abort-w%d", w))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[w], lns[w] = ln.Addr(), ln
	}
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		spec := specs[w]
		spec.BaseIter, spec.Iterations, spec.Addrs = 0, 1<<20, addrs
		_, byName := partTestKernels(g, 7, sinks)
		// Gate actor A so the epoch is guaranteed in-flight when cancelled.
		inner := byName["A"]
		byName["A"] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			if iter == 3 {
				close(release)
				<-ctx.Done()
			}
			return inner(iter, in)
		}
		opts := DistOptions{
			Transport: tr, Listener: lns[w], Context: ctx,
			Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond,
				MaxDelay: 5 * time.Millisecond},
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = coldEpoch(spec, byName, opts)
		}(w)
	}
	<-release
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled partition run did not unwind")
	}
	for w, err := range errs {
		if err == nil {
			t.Errorf("worker %d: cancelled epoch completed cleanly", w)
		}
	}
}

// TestPartitionSpecValidation is the table of malformed inputs to the one
// compiled form: what the placement validation refuses of a static node
// list and of a coordinator's placement (a node list may name nodes that
// host nothing, a placement may not), and what the lowering refuses of a
// spec. The texts are part of the contract: the CLIs print them.
func TestPartitionSpecValidation(t *testing.T) {
	g, m := partGraph()
	sinks := &partTestSinks{d: map[string]uint64{}}
	byID, byName := partTestKernels(g, 7, sinks)
	static := func(opts DistOptions) func() error {
		return func() error { _, err := ExecuteDistributed(g, m, byID, 1, opts); return err }
	}
	placement := func(workerOf []int, workers int) func() error {
		return func() error { _, err := BuildPartitions(g, m, workerOf, workers, 1, false); return err }
	}
	specs, err := BuildPartitions(g, m, []int{0, 1, 0}, 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[0]
	spec.BaseIter, spec.Iterations, spec.Addrs = 0, 1, []string{"x", "y"}
	execute := func(mutate func(*PartitionSpec), kernels map[string]Kernel) func() error {
		return func() error {
			bad := *spec
			bad.Edges = append([]PartEdge(nil), spec.Edges...)
			mutate(&bad)
			_, err := ExecutePartition(&bad, kernels, DistOptions{})
			return err
		}
	}
	two := []string{"x", "y"}
	for _, c := range []struct {
		name string
		run  func() error
		want string // "" = accepted
	}{
		{"no addresses", static(DistOptions{}), "spi: distributed run needs at least one address"},
		{"node out of range", static(DistOptions{Addrs: two, Node: 2}), "spi: node 2 out of range [0,2)"},
		{"NodeOf length", static(DistOptions{Addrs: two, NodeOf: []int{0, 1}}), "spi: NodeOf has 2 entries, mapping has 3 processors"},
		{"NodeOf range", static(DistOptions{Addrs: two, NodeOf: []int{0, 0, 3}}), "spi: NodeOf[2] = 3 out of range [0,2)"},
		{"identity, too few addresses", static(DistOptions{Addrs: two}), "spi: 3 processors but only 2 node addresses (set NodeOf)"},
		{"this node hosts nothing", static(DistOptions{Addrs: two, Node: 1, NodeOf: []int{0, 0, 0}}), "spi: node 1 hosts no processors"},
		{"another node hosts nothing", static(DistOptions{Addrs: two, NodeOf: []int{0, 0, 0}}), ""},
		{"cross-node edges, no transport", static(DistOptions{Addrs: two, NodeOf: []int{0, 1, 0}}), "spi: distributed run needs a transport or a link provider"},
		{"a node list with a hole", func() error { _, err := BuildPartition(g, m, []int{0, 2, 0}, 3, 2, 1, false); return err }, ""},
		{"placement length", placement([]int{0, 1}, 2), "spi: placement has 2 entries, mapping has 3 processors"},
		{"no placement", placement(nil, 3), "spi: placement has 0 entries, mapping has 3 processors"},
		{"placement range", placement([]int{0, 0, 3}, 3), "spi: placement[2] = 3 out of range [0,3)"},
		{"a worker hosts nothing", placement([]int{0, 0, 0}, 2), "spi: worker 1 hosts no processors"},
		{"missing kernels", execute(func(*PartitionSpec) {}, nil), "has no kernel"},
		{"zero iterations", execute(func(s *PartitionSpec) { s.Iterations = 0 }, byName), "spi: partition iterations = 0"},
		{"negative base", execute(func(s *PartitionSpec) { s.BaseIter = -1 }, byName), "spi: partition base iteration = -1"},
		{"node out of worker range", execute(func(s *PartitionSpec) { s.Node = 2 }, byName), "spi: partition node 2 of 2 workers"},
		{"no processors", execute(func(s *PartitionSpec) { s.Procs = nil }, byName), "spi: partition hosts no processors"},
		{"peer out of range", execute(func(s *PartitionSpec) {
			for i := range s.Edges {
				if crossesWorkers(&s.Edges[i]) {
					s.Edges[i].Peer = 5
				}
			}
		}, byName), "names peer worker 5 of 2"},
		{"edge blocked in a scalar run", execute(func(s *PartitionSpec) { s.Edges[0].Block = 4 }, byName), "has block factor 4, want 1 in a run of block 1"},
		{"edge token-granular in a blocked run", execute(func(s *PartitionSpec) { s.Block = 2 }, byName), "has block factor 1, want 2 in a run of block 2"},
		// Half a slab of delay is the carry: lowering takes it, and the run
		// gets as far as its links.
		{"preload of half a slab", execute(func(s *PartitionSpec) {
			s.Block = 2
			for i := range s.Edges {
				if e := &s.Edges[i]; !e.SameProc {
					e.Block = 2
					if e.Out && e.Delay > 0 {
						s.Preload = map[uint16][][]byte{e.ID: {{}}}
					}
				}
			}
		}, byName), "spi: distributed run needs a transport or a link provider"},
	} {
		err := c.run()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// TestOpenPartitionNamesNoRange: a standing deployment opens from a spec
// that names no iteration range — each Run names its own — while
// ExecutePartition, which runs the spec's range, refuses the same spec.
func TestOpenPartitionNamesNoRange(t *testing.T) {
	g, m := partGraph()
	specs, err := BuildPartitions(g, m, []int{0, 0, 0}, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[0] // BaseIter and Iterations stay zero
	sinks := &partTestSinks{d: map[string]uint64{}}
	_, byName := partTestKernels(g, 7, sinks)
	pr, err := OpenPartition(spec, byName, DistOptions{})
	if err != nil {
		t.Fatalf("open from a spec without a range: %v", err)
	}
	err = pr.Run(0, 5)
	res := pr.Checkpoint()
	pr.Close(err == nil)
	if err != nil || res.Firings["A"] != 5 {
		t.Fatalf("Run(0, 5): %v, checkpoint %+v; want 5 firings per actor", err, res)
	}
	want, _ := partReference(t, 5)
	checkPartDigests(t, sinks.snapshot(), want, nil, nil)
	if _, err := ExecutePartition(spec, byName, DistOptions{}); err == nil || err.Error() != "spi: partition iterations = 0" {
		t.Errorf("ExecutePartition on the same spec: %v, want the iteration-count refusal", err)
	}
}

// TestOpenPartitionBlockedCheckpoint: a blocked standing deployment with
// delayed edges checkpoints exactly what the per-epoch cold path does, and
// what a scalar run does at the same epoch boundaries. partGraph at B = 2 on
// two workers preloads "ab" (two iterations of delay) as one slab across
// workers and carries "bc"'s one delay token inside worker 1; the last epoch
// ends inside a block.
func TestOpenPartitionBlockedCheckpoint(t *testing.T) {
	const iterations, epochLen = 7, 2
	workerOf := []int{0, 1, 1}
	want, _ := partReference(t, iterations)
	scalar, _ := runPartEpochs(t, iterations, epochLen, 1, workerOf, false)
	cold, coldDigests := runPartEpochs(t, iterations, epochLen, 2, workerOf, false)
	warm, warmDigests := runPartEpochs(t, iterations, epochLen, 2, workerOf, true)
	sameCheckpoints(t, "standing vs cold", warm, cold)
	sameCheckpoints(t, "blocked vs scalar", cold, scalar)
	checkPartDigests(t, coldDigests, want, nil, nil)
	checkPartDigests(t, warmDigests, want, nil, nil)
}

// TestSharedSpecConcurrentLowering lowers and runs one spec from 16
// goroutines at once, as a session server's admissions do: lowering only
// reads the spec, so under -race this is silent and every run produces the
// reference digests.
func TestSharedSpecConcurrentLowering(t *testing.T) {
	g, m := partGraph()
	specs, err := BuildPartitions(g, m, []int{0, 0, 0}, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[0]
	spec.Iterations = 9
	want, _ := partReference(t, spec.Iterations)
	errs := make([]error, 16)
	got := make([]map[string]uint64, len(errs))
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sinks := &partTestSinks{d: map[string]uint64{}}
			_, byName := partTestKernels(g, 7, sinks)
			_, errs[i] = ExecutePartition(spec, byName, DistOptions{})
			got[i] = sinks.snapshot()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		checkPartDigests(t, got[i], want, nil, nil)
	}
}
