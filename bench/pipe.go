package main

import (
	"context"
	_ "embed"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/demo"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/transport"
)

//go:embed graphs/pipe.sdf
var pipeSDF string

// demoGraph is a text-DSL graph run with demo.Kernels under an
// assignment list, the way spinode, spiload and spictl run one: the
// reference is the sink digests of a single-process spi.Execute.
type demoGraph struct {
	src    string
	assign []int
	g      *dataflow.Graph
	m      *sched.Mapping
	nodeOf []int // nil: processor p on node p
	seed   uint64
	shape  edgeShape // of the edge leaving node 0; set by ladder
}

func newDemoGraph(src string, assign, nodeOf []int, seed uint64) (*demoGraph, error) {
	g, err := dataflow.Parse(strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	m, err := demo.Mapping(g, assign)
	if err != nil {
		return nil, err
	}
	return &demoGraph{src: src, assign: assign, g: g, m: m, nodeOf: nodeOf, seed: seed}, nil
}

// kernels builds a fresh kernel set folding into fresh digest slots.
func (d *demoGraph) kernels() (map[dataflow.ActorID]spi.Kernel, map[string]*uint64, error) {
	digests := demo.Sinks(d.g)
	ks, err := demo.Kernels(d.g, d.seed, digests, new(sync.Mutex))
	return ks, digests, err
}

// reference runs the whole graph in one process and returns the digest of
// every sink.
func (d *demoGraph) reference(iters int) (map[string]uint64, error) {
	ks, digests, err := d.kernels()
	if err != nil {
		return nil, err
	}
	if _, err := spi.Execute(d.g, d.m, ks, iters); err != nil {
		return nil, err
	}
	want := map[string]uint64{}
	for name, v := range digests {
		want[name] = *v
	}
	return want, nil
}

// check compares the digests of the sinks hosted on node (-1: all) with
// the reference.
func (d *demoGraph) check(got map[string]*uint64, want map[string]uint64, node int) error {
	for _, a := range d.g.Actors() {
		if len(d.g.Out(a)) != 0 || (node >= 0 && d.nodeOf[d.m.Proc[a]] != node) {
			continue
		}
		name := d.g.Actor(a).Name
		if *got[name] != want[name] {
			return fmt.Errorf("sink %s digest %016x, single-process reference %016x", name, *got[name], want[name])
		}
	}
	return nil
}

// source and sink return the first actor without inputs and the first
// without outputs: the two ends the latency stamps bracket.
func (d *demoGraph) source() dataflow.ActorID {
	for _, a := range d.g.Actors() {
		if len(d.g.In(a)) == 0 {
			return a
		}
	}
	return 0
}

func (d *demoGraph) sink() dataflow.ActorID {
	for _, a := range d.g.Actors() {
		if len(d.g.Out(a)) == 0 {
			return a
		}
	}
	return 0
}

// stamps carries a token's source-kernel entry time to the return of the
// sink firing that consumes it, lag iterations later (the initial delay
// on the path). Source and sink run on different nodes whose only
// ordering is the wire, hence atomics.
//
// A free-running source queues tokens ahead of the sink (the cross-node
// edge is unbounded, UBS), so a sampled token also waits behind that
// queue, a wait that grows through the round with the difference of two
// rates and does not repeat run to run: those samples are the
// loaded-latency diagnostic. With pace set the source fires only after
// the sink has consumed the previous token, so every token crosses an
// empty pipeline: those samples are the workload's unit latency.
type stamps struct {
	at          []atomic.Int64 // UnixNano at source entry, per sampled iteration
	stride, lag int
	pace        chan struct{} // nil: free-running
}

func newStamps(iters, lag int, paced bool) *stamps {
	s := &stamps{stride: stride(iters), lag: lag}
	if paced {
		s.stride = 1
		s.pace = make(chan struct{}, 1) // one token in flight
	}
	s.at = make([]atomic.Int64, iters/s.stride+1)
	return s
}

// wrap installs the stamps around the source and sink kernels of ks. ctx
// releases a paced source when the run ends early.
func (s *stamps) wrap(ctx context.Context, ks map[dataflow.ActorID]spi.Kernel, source, sink dataflow.ActorID, m *meter) {
	if k := ks[source]; k != nil {
		ks[source] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			if s.pace != nil && iter > 0 {
				select {
				case <-s.pace:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			if iter%s.stride == 0 {
				s.at[iter/s.stride].Store(time.Now().UnixNano())
			}
			return k(iter, in)
		}
	}
	if k := ks[sink]; k != nil {
		ks[sink] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			out, err := k(iter, in)
			token := iter - s.lag
			if token < 0 {
				return out, err
			}
			if token%s.stride == 0 {
				d := time.Duration(time.Now().UnixNano() - s.at[token/s.stride].Load())
				if s.pace != nil {
					m.unitLatency(d)
				} else {
					m.loadedLatency(d)
				}
			}
			if s.pace != nil {
				s.pace <- struct{}{}
			}
			return out, err
		}
	}
}

// pipe_tcp_scalar: the pipeline graph over two nodes on TCP with every
// DistOptions field at its default: scalar, unbatched, standalone acks.
// One syscall and one ack frame per token: the opposite use of the
// transport from the LPC streams.
type pipeWorkload struct {
	iters int // per round, at scale 1

	d         *demoGraph
	n         int // iterations per round after scaling
	want      map[string]uint64
	probeWant map[string]uint64
	pacedWant map[string]uint64
}

const (
	// pipeLag is the initial delay on the path src → mid → sink, in
	// iterations: edge sm starts with one firing's worth of tokens.
	pipeLag = 1
	// pipeProbeIters is the shortest run in which the first token reaches
	// the sink.
	pipeProbeIters = pipeLag + 1
	// pipePacedIters is the length of a probe's paced run: that many unit
	// latencies, less the lag, per probe.
	pipePacedIters = 200
)

func (w *pipeWorkload) init(e *env) error {
	d, err := newDemoGraph(pipeSDF, []int{0, 1, 1}, []int{0, 1}, e.seed)
	if err != nil {
		return err
	}
	w.d, w.n = d, max(e.units(w.iters), pipeProbeIters)
	if w.want, err = d.reference(w.n); err != nil {
		return err
	}
	if w.probeWant, err = d.reference(pipeProbeIters); err != nil {
		return err
	}
	w.pacedWant, err = d.reference(pipePacedIters)
	return err
}

func (w *pipeWorkload) close() {}

func (w *pipeWorkload) round(e *env) (roundStats, error) {
	stats, err := w.run(e, w.n, w.want, false)
	if err != nil {
		return failedRound(w.n, err)
	}
	rs := roundStats{attempted: w.n}
	rs.addExec(stats...)
	return rs, nil
}

// probe is a cold run of the shortest verifiable length, the set-up
// sample, then a paced run whose every token crosses an empty pipeline,
// the unit-latency samples.
func (w *pipeWorkload) probe(e *env) (roundStats, error) {
	const n = pipeProbeIters + pipePacedIters
	t0 := time.Now()
	if _, err := w.run(e, pipeProbeIters, w.probeWant, false); err != nil {
		return failedRound(n, err)
	}
	e.m.setup(time.Since(t0))
	if _, err := w.run(e, pipePacedIters, w.pacedWant, true); err != nil {
		return failedRound(n, fmt.Errorf("paced run: %w", err))
	}
	return roundStats{attempted: n}, nil
}

// run executes both nodes in this process for n iterations, as spinode
// -inproc does, and verifies the sink digests. paced holds the source to
// one token in flight.
func (w *pipeWorkload) run(e *env, n int, want map[string]uint64, paced bool) ([]*spi.ExecStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), roundDeadline)
	defer cancel()
	const nodes = 2
	tr := &transport.TCP{}
	var (
		addrs   [nodes]string
		lns     [nodes]transport.Listener
		stats   [nodes]*spi.ExecStats
		errs    [nodes]error
		digests [nodes]map[string]*uint64
		wg      sync.WaitGroup
	)
	for i := range addrs {
		ln, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i], lns[i] = ln.Addr(), ln
	}
	st := newStamps(n, pipeLag, paced)
	for node := 0; node < nodes; node++ {
		ks, dg, err := w.d.kernels()
		if err != nil {
			return nil, err
		}
		st.wrap(ctx, ks, w.d.source(), w.d.sink(), e.m)
		digests[node] = dg
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			// Every tuning field stays at its default; only the
			// addresses, the guards and the observer are set.
			stats[node], errs[node] = spi.ExecuteDistributed(w.d.g, w.d.m, ks, n, spi.DistOptions{
				Transport: tr, Node: node, Addrs: addrs[:], NodeOf: w.d.nodeOf, Listener: lns[node],
				Context: ctx, StallTimeout: stallTimeout, Obs: e.obs,
			})
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", node, err)
		}
	}
	for node := range digests {
		if err := w.d.check(digests[node], want, node); err != nil {
			return nil, err
		}
	}
	return stats[:], nil
}

func (w *pipeWorkload) ladder(e *env, l *ladder) error {
	if err := w.d.ladder(l); err != nil {
		return err
	}
	return l.transportRungs(carrier{&transport.TCP{}, "127.0.0.1:0"}, w.d.shape, linkTune{})
}

// ladder runs the rungs every demo-graph workload shares: the kernels
// called directly in actor order, planning, the spi pieces at the shape of
// the edge leaving node 0, and the executor with no-op kernels.
func (d *demoGraph) ladder(l *ladder) error {
	ks, _, err := d.kernels()
	if err != nil {
		return err
	}
	actors := d.g.Actors() // declared upstream first in all three graphs
	last := map[dataflow.EdgeID][]byte{}
	iter := 0
	ns, _, err := l.rung("demo.Kernels", 5000, func(n int) error {
		for end := iter + n; iter < end; iter++ {
			for _, a := range actors {
				in := map[dataflow.EdgeID][]byte{}
				for _, eid := range d.g.In(a) {
					in[eid] = last[eid]
				}
				out, err := ks[a](iter, in)
				if err != nil {
					return err
				}
				for eid, p := range out {
					last[eid] = p
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("kernel.ns_per_unit", ns)

	plans := []planStep{
		{"plan.build_us", func() error {
			g, err := dataflow.Parse(strings.NewReader(d.src))
			if err != nil {
				return err
			}
			_, err = demo.Mapping(g, d.assign)
			return err
		}},
		{"plan.resync_us", func() error { _, err := spi.ResyncSuppression(d.g, d.m); return err }},
		{"plan.block_us", func() error { _, _, err := sched.PickBlock(d.g, 0, 0); return err }},
	}
	if target, err := dataflow.HeaviestFissionable(d.g); err == nil {
		plans = append(plans, planStep{"plan.fission_us", func() error {
			_, err := dataflow.Fission(d.g, target, dataflow.FissionOptions{K: 4})
			return err
		}})
	}
	if err := l.plan(plans...); err != nil {
		return err
	}

	nodeOf := d.nodeOf
	if nodeOf == nil {
		nodeOf = make([]int, d.m.NumProcs)
		for p := range nodeOf {
			nodeOf[p] = p
		}
	}
	if d.shape, err = shapeOf(d.g, d.m, nodeOf, 0, l.meanPayload); err != nil {
		return err
	}
	l.block = d.shape.block
	if err := l.spiRungs(d.shape); err != nil {
		return err
	}
	return l.execRungs(d.g, d.m, 0)
}
