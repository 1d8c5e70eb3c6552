package spi

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Partition-scoped execution: run one worker's share of a mapped graph
// from a self-contained PartitionSpec, without the graph, the mapping, or
// the VTS analysis. The coordinator (internal/orch) extracts the spec
// from the full plan and ships it over the control plane; the worker
// lowers it (lowerPartition) to exactly the execEnv lowerGraph would have
// built for the same processors — same edge configs, same payload bounds,
// same receive order, same preloaded delays — and opens and fires it
// through the same open and run, so any placement of the processors over
// any number of workers produces bit-identical kernel inputs.
//
// A spec additionally carries resumption state: BaseIter offsets the
// iteration numbers the kernels see, Preload holds the in-flight tokens
// of every delayed edge at the epoch boundary, and State holds per-actor
// checkpoint blobs. A run returns the matching Tails/State for the next
// epoch, which is what makes live migration a checkpoint-and-replay of
// pure data.

// PartEdge is one dataflow edge as a partition sees it: the planned SPI
// configuration plus locality. Locality is decided by the processor-level
// mapping, never by worker placement — a same-processor edge is a local
// queue wherever its processor lands, so kernel-visible bytes do not
// depend on placement.
type PartEdge struct {
	// ID is the dataflow edge ID (also the SPI edge ID on the wire).
	ID uint16
	// Name is the edge's graph name, for error messages and kernels.
	Name string
	// Mode, Bytes, Protocol, Capacity mirror the planned EdgeConfig:
	// Mode 0 is static (fixed Bytes payloads), 1 dynamic (bound Bytes);
	// Protocol 0 is BBS with Capacity messages, 1 UBS.
	Mode     uint8
	Bytes    uint32
	Protocol uint8
	Capacity uint32
	// Delay is the edge's initial delay in whole graph iterations.
	Delay uint32
	// SameProc marks both endpoints on one processor: a local queue.
	SameProc bool
	// Out/In mark the hosted endpoints of a cross-processor edge: both
	// set means both processors live on this worker (an in-process SPI
	// edge); exactly one set means the edge crosses workers.
	Out bool
	In  bool
	// Peer is the worker hosting the far endpoint of a cross-worker
	// edge, -1 otherwise.
	Peer int
	// SuppressAck marks a UBS edge whose acknowledgement the §4
	// resynchronization verdict proved redundant (see ResyncSuppression).
	// BuildPartitions always stamps it — the verdict depends only on the
	// graph and processor mapping, never on placement — and the spec's
	// Resync flag decides whether the deployment acts on it.
	SuppressAck bool
}

// PartActor is one actor of a partition, with its full edge lists in
// graph order (the executor consumes inputs in exactly this order, like
// the mapped executor consumes g.In(a)).
type PartActor struct {
	Name string
	In   []uint16
	Out  []uint16
}

// PartProc is one processor of a partition: its global processor index
// and its actors in schedule order.
type PartProc struct {
	Proc   int
	Actors []PartActor
}

// PartitionSpec is the self-contained manifest of one worker's share of
// an execution epoch. It replaces the full graph + mapping a spinode
// normally loads: a worker holding only its spec can execute, RESUME
// after a severed connection, and checkpoint for migration.
type PartitionSpec struct {
	// Graph is the graph name (kernels fold it into their hashes).
	Graph string
	// Node is this worker's index for the epoch, Workers the worker
	// count; Addrs[n] is worker n's data-plane address for this epoch
	// (only peers' entries need be set).
	Node    int
	Workers int
	Addrs   []string
	// BaseIter is the first global iteration of this epoch; kernels see
	// iterations BaseIter..BaseIter+Iterations-1.
	BaseIter   int
	Iterations int
	// Procs are the processors placed on this worker, Edges every edge
	// touching them.
	Procs []PartProc
	Edges []PartEdge
	// Preload holds, per delayed edge whose producing side lives here
	// (Out or SameProc), the in-flight payloads at BaseIter — the zero
	// blocks of a fresh run, or the previous epoch's tails.
	Preload map[uint16][][]byte
	// State holds per-actor checkpoint blobs for stateful kernels,
	// keyed by actor name (see StateHooks).
	State map[string][]byte
	// Resync activates ack suppression on the edges BuildPartitions
	// marked SuppressAck: cross-worker links declare them in their
	// handshake manifests and swallow the redundant acks. The
	// coordinator sets it uniformly for all workers of an epoch.
	Resync bool
}

// PartResult reports one epoch of partition execution: Tails and State
// are the checkpoint at its end, Firings and ProcNS cover the epoch alone.
type PartResult struct {
	// Tails holds, per delayed edge produced here, the in-flight
	// payloads at the epoch end — the next epoch's Preload.
	Tails map[uint16][][]byte
	// State holds the per-actor checkpoint blobs at the epoch end.
	State map[string][]byte
	// Firings counts completed firings per actor.
	Firings map[string]int
	// ProcNS is the kernel-execution time per hosted processor in
	// nanoseconds, parallel to the spec's Procs — the load signal the
	// coordinator's placement consumes.
	ProcNS []int64
}

// StateHooks checkpoint and restore one stateful actor. The executor
// calls Restore with the spec's blob (nil for a fresh run) before the
// first firing and Checkpoint after the last; stateless actors simply
// have no hooks.
type StateHooks struct {
	Checkpoint func() []byte
	Restore    func(state []byte) error
}

// PartOptions configures one partition execution.
type PartOptions struct {
	// Transport carries the data-plane links to peer workers.
	Transport transport.Transport
	// Listener optionally supplies the pre-bound listener for
	// Addrs[Node] (the per-epoch ephemeral listener the worker announced
	// to the coordinator).
	Listener transport.Listener
	// Retry configures dial retry/backoff toward peer workers.
	Retry transport.RetryConfig
	// Context, when non-nil, aborts the deployment when cancelled: every
	// blocked actor is released, the links are torn down and the run in
	// progress returns the context error. The coordinator's Abort is
	// exactly a cancellation.
	Context context.Context
	// Reconnect enables RESUME link resumption on the data plane, so a
	// severed connection mid-epoch replays its unacknowledged suffix
	// instead of failing the epoch.
	Reconnect transport.ReconnectConfig
	// Heartbeat / PeerTimeout enable liveness probing on data links.
	Heartbeat   time.Duration
	PeerTimeout time.Duration
	// SendTimeout bounds each frame write on data links.
	SendTimeout time.Duration
	// State supplies checkpoint/restore hooks per stateful actor name.
	State map[string]StateHooks
	// Obs instruments the run's runtime edges and links.
	Obs *obs.Observer
}

// crossesWorkers reports whether an edge has exactly one endpoint on this
// worker, i.e. rides a link to a peer.
func crossesWorkers(e *PartEdge) bool {
	return !e.SameProc && (e.Out != e.In)
}

// lowerPartition validates a spec and compiles it into the execEnv its
// worker runs: the spec-side twin of lowerGraph, always at block 1. A
// delayed cross-processor edge produced here gets a tailRing, the
// checkpoint hook on its out-slot, seeded with the spec's preload.
func lowerPartition(spec *PartitionSpec, kernels map[string]Kernel) (*execEnv, error) {
	if spec.Iterations <= 0 {
		return nil, fmt.Errorf("spi: partition iterations = %d", spec.Iterations)
	}
	if spec.BaseIter < 0 {
		return nil, fmt.Errorf("spi: partition base iteration = %d", spec.BaseIter)
	}
	if len(spec.Procs) == 0 {
		return nil, errors.New("spi: partition hosts no processors")
	}
	if spec.Node < 0 || spec.Workers < 1 || spec.Node >= spec.Workers {
		return nil, fmt.Errorf("spi: partition node %d of %d workers", spec.Node, spec.Workers)
	}
	env := &execEnv{node: spec.Node, block: 1, rt: NewRuntime(), timed: true,
		edges: make([]edgeSlot, len(spec.Edges)), procs: make([]procPlan, len(spec.Procs))}
	slots := make(map[uint16]*edgeSlot, len(spec.Edges))
	for i := range spec.Edges {
		e := &spec.Edges[i]
		if slots[e.ID] != nil {
			return nil, fmt.Errorf("spi: partition declares edge %d twice", e.ID)
		}
		if !e.SameProc && !e.Out && !e.In {
			return nil, fmt.Errorf("spi: partition edge %s has no hosted endpoint", e.Name)
		}
		if crossesWorkers(e) && (e.Peer < 0 || e.Peer >= spec.Workers || e.Peer == spec.Node) {
			return nil, fmt.Errorf("spi: partition edge %s names peer worker %d of %d", e.Name, e.Peer, spec.Workers)
		}
		s := &env.edges[i]
		slots[e.ID] = s
		*s = edgeSlot{id: dataflow.EdgeID(e.ID), name: e.Name, bmax: int(e.Bytes),
			dynamic: Mode(e.Mode) == Dynamic, block: 1, peer: -1}
		if e.SameProc {
			// The local queue itself is the in-flight state.
			s.queue = clonePayloads(spec.Preload[e.ID])
			continue
		}
		s.cfg = EdgeConfig{ID: EdgeID(e.ID), Name: e.Name, Mode: Mode(e.Mode),
			Protocol: Protocol(e.Protocol), Capacity: int(e.Capacity)}
		if s.dynamic {
			s.cfg.MaxBytes = s.bmax
		} else {
			s.cfg.PayloadBytes = s.bmax
		}
		s.out, s.in = e.Out, e.In
		if crossesWorkers(e) {
			s.peer = e.Peer
			if spec.Resync && e.SuppressAck {
				env.resync = append(env.resync, e.ID)
			}
		}
		if e.Out {
			s.preload = spec.Preload[e.ID]
			if e.Delay > 0 {
				s.tail = &tailRing{depth: int(e.Delay)}
				for _, p := range s.preload {
					s.tail.push(p)
				}
			}
		}
	}
	slices.Sort(env.resync)

	pick := func(actor string, ids []uint16) ([]*edgeSlot, error) {
		out := make([]*edgeSlot, len(ids))
		for i, id := range ids {
			if out[i] = slots[id]; out[i] == nil {
				return nil, fmt.Errorf("spi: actor %s references undeclared edge %d", actor, id)
			}
		}
		return out, nil
	}
	for pi := range spec.Procs {
		sp := &spec.Procs[pi]
		env.procs[pi] = procPlan{proc: sp.Proc, actors: make([]actorSlot, len(sp.Actors)),
			in: map[dataflow.EdgeID][]byte{}}
		for ai := range sp.Actors {
			a, as := &sp.Actors[ai], &env.procs[pi].actors[ai]
			as.name, as.kernel = a.Name, kernels[a.Name]
			var err error
			if as.in, err = pick(a.Name, a.In); err != nil {
				return nil, err
			}
			if as.out, err = pick(a.Name, a.Out); err != nil {
				return nil, err
			}
		}
	}
	return env, env.checkKernels()
}

// PartitionRun is one worker's standing deployment of a partition: the
// runtime edges (with their delay tokens in flight), the data links to
// peer workers, the kernels and the actor state, all set up once by
// OpenPartition and reused by every Run until Close.
type PartitionRun struct {
	env       *execEnv
	spec      *PartitionSpec
	opts      PartOptions
	stopWatch func() bool
}

// OpenPartition sets up one worker's partition from its self-contained
// spec — the SPI_init of the deployment. Kernels are keyed by actor name;
// cross-worker edges are carried over links dialed/accepted per the spec's
// addresses (lower-numbered workers are dialed, higher-numbered accepted,
// exactly like ExecuteDistributed's node rule), and every delayed edge
// produced here is preloaded from the spec. The spec's BaseIter and
// Iterations are not consulted: each Run names its own range. Cancelling
// opts.Context at any point aborts the deployment — blocked actors are
// released and the links torn down — and the caller still owes a Close.
func OpenPartition(spec *PartitionSpec, kernels map[string]Kernel, opts PartOptions) (*PartitionRun, error) {
	env, err := lowerPartition(spec, kernels)
	if err != nil {
		return nil, err
	}
	// Restore checkpointed actor state before any firing.
	for name, hooks := range opts.State {
		if hooks.Restore == nil {
			continue
		}
		if err := hooks.Restore(spec.State[name]); err != nil {
			return nil, fmt.Errorf("spi: restore state of actor %s: %w", name, err)
		}
	}
	err = env.open(DistOptions{
		Transport: opts.Transport, Node: spec.Node, Addrs: spec.Addrs,
		Listener: opts.Listener, Retry: opts.Retry, Context: opts.Context,
		Reconnect: opts.Reconnect, Heartbeat: opts.Heartbeat,
		PeerTimeout: opts.PeerTimeout, SendTimeout: opts.SendTimeout,
		Obs: opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	pr := &PartitionRun{env: env, spec: spec, opts: opts}
	if opts.Context != nil {
		pr.stopWatch = context.AfterFunc(opts.Context, env.release)
	}
	return pr, nil
}

// Run fires iterations baseIter..baseIter+n-1 on the standing environment
// and returns the checkpoint at their end. A deployment runs one range at
// a time, each starting where the last one ended. The run is fail-fast: a
// dead peer, a kernel error, or a cancelled context fails it, after which
// the deployment can only be closed — the coordinator re-places and
// re-executes the range, and determinism makes that bit-identical.
func (pr *PartitionRun) Run(baseIter, n int) (*PartResult, error) {
	if baseIter < 0 || n <= 0 {
		return nil, fmt.Errorf("spi: partition run of %d iterations from %d", n, baseIter)
	}
	env := pr.env
	runErr := collapseErrs(env.run(baseIter, n))
	if ctx := pr.opts.Context; ctx != nil && ctx.Err() != nil {
		runErr = ctx.Err()
	}
	if runErr != nil {
		if cause := env.fails.first(); cause != nil && errors.Is(runErr, ErrClosed) {
			return nil, fmt.Errorf("spi: worker %d: %w (link failure: %v)", env.node, runErr, cause)
		}
		return nil, runErr
	}

	res := &PartResult{
		Tails:   map[uint16][][]byte{},
		State:   map[string][]byte{},
		Firings: map[string]int{},
		ProcNS:  make([]int64, len(env.procs)),
	}
	for pi := range env.procs {
		res.ProcNS[pi] = env.procs[pi].busy
	}
	env.eachActor(func(_ *procPlan, a *actorSlot) { res.Firings[a.name] = int(a.fired.Load()) })
	for i := range pr.spec.Edges {
		// The in-flight tokens of a delayed edge produced here: the last
		// Delay payloads sent, or what its local queue holds.
		switch e, s := &pr.spec.Edges[i], &env.edges[i]; {
		case s.tail != nil:
			res.Tails[e.ID] = clonePayloads(s.tail.q)
		case e.SameProc && e.Delay > 0:
			res.Tails[e.ID] = clonePayloads(s.queue)
		}
	}
	for name, hooks := range pr.opts.State {
		if hooks.Checkpoint != nil {
			res.State[name] = hooks.Checkpoint()
		}
	}
	return res, nil
}

// Close ends the deployment. A graceful close drains every link with the
// GOODBYE exchange, so peers that are still consuming see a completed
// run; otherwise the links are aborted and peers observe a failure.
func (pr *PartitionRun) Close(graceful bool) {
	if pr.stopWatch != nil {
		pr.stopWatch()
	}
	pr.env.finish(graceful)
}

// ExecutePartition runs one epoch of a partition as a deployment of its
// own: open, run the spec's iteration range, close — gracefully when the
// run succeeded, so every token it sent is delivered before it returns.
func ExecutePartition(spec *PartitionSpec, kernels map[string]Kernel, opts PartOptions) (*PartResult, error) {
	pr, err := OpenPartition(spec, kernels, opts)
	if err != nil {
		return nil, err
	}
	res, err := pr.Run(spec.BaseIter, spec.Iterations)
	pr.Close(err == nil)
	return res, err
}

func clonePayloads(in [][]byte) [][]byte {
	if in == nil {
		return nil
	}
	out := make([][]byte, len(in))
	for i, p := range in {
		out[i] = append([]byte(nil), p...)
	}
	return out
}

// BuildPartitions extracts one PartitionSpec per worker from the full
// graph, processor mapping, and processor→worker placement — the
// coordinator-side complement of ExecutePartition. The returned specs
// carry structure and edge plans only; the caller fills the per-epoch
// fields (BaseIter, Iterations, Addrs, Preload, State). Every worker must
// host at least one processor.
func BuildPartitions(g *dataflow.Graph, m *sched.Mapping, workerOf []int, workers int) ([]*PartitionSpec, error) {
	if err := m.Validate(g); err != nil {
		return nil, err
	}
	if len(workerOf) != m.NumProcs {
		return nil, fmt.Errorf("spi: placement has %d entries, mapping has %d processors", len(workerOf), m.NumProcs)
	}
	hosted := make([]bool, workers)
	for p, w := range workerOf {
		if w < 0 || w >= workers {
			return nil, fmt.Errorf("spi: placement[%d] = %d out of range [0,%d)", p, w, workers)
		}
		hosted[w] = true
	}
	for w, ok := range hosted {
		if !ok {
			return nil, fmt.Errorf("spi: worker %d hosts no processors", w)
		}
	}
	plan, err := newGraphPlan(g, 1)
	if err != nil {
		return nil, err
	}
	// The resynchronization verdict is placement-independent, so the
	// SuppressAck marks are stamped unconditionally; the spec's Resync
	// flag (set by the coordinator) decides whether workers act on them.
	rp, err := ResyncSuppression(g, m)
	if err != nil {
		return nil, err
	}
	specs := make([]*PartitionSpec, workers)
	for w := range specs {
		specs[w] = &PartitionSpec{
			Graph: g.Name(), Node: w, Workers: workers,
			Preload: map[uint16][][]byte{}, State: map[string][]byte{},
		}
	}
	for p := 0; p < m.NumProcs; p++ {
		pp := PartProc{Proc: p}
		for _, a := range m.Order[p] {
			pa := PartActor{Name: g.Actor(a).Name}
			for _, eid := range g.In(a) {
				pa.In = append(pa.In, uint16(eid))
			}
			for _, eid := range g.Out(a) {
				pa.Out = append(pa.Out, uint16(eid))
			}
			pp.Actors = append(pp.Actors, pa)
		}
		specs[workerOf[p]].Procs = append(specs[workerOf[p]].Procs, pp)
	}
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		srcW, snkW := workerOf[m.Proc[e.Src]], workerOf[m.Proc[e.Snk]]
		decl := declFor(plan.edgeConfig(eid), false)
		_, suppress := rp.Suppressed[eid]
		pe := PartEdge{
			ID: decl.ID, Name: e.Name, Mode: decl.Mode, Bytes: decl.Bytes,
			Protocol: decl.Protocol, Capacity: decl.Capacity,
			Delay: uint32(plan.delayIters(eid)), Peer: -1, SuppressAck: suppress,
		}
		if m.Proc[e.Src] == m.Proc[e.Snk] {
			pe.SameProc = true
			specs[srcW].Edges = append(specs[srcW].Edges, pe)
			continue
		}
		if srcW == snkW {
			pe.Out, pe.In = true, true
			specs[srcW].Edges = append(specs[srcW].Edges, pe)
			continue
		}
		src := pe
		src.Out, src.Peer = true, snkW
		specs[srcW].Edges = append(specs[srcW].Edges, src)
		snk := pe
		snk.In, snk.Peer = true, srcW
		specs[snkW].Edges = append(specs[snkW].Edges, snk)
	}
	return specs, nil
}

// InitialPreloads computes every delayed edge's in-flight payloads at
// iteration 0 — the canonical delay tokens a fresh run preloads: empty
// payloads on same-processor edges (whose local queues preload nothing)
// and dynamic edges, zero blocks of the static transfer size on
// cross-processor static edges. Locality follows the processor mapping,
// never worker placement, so the preloaded bytes match Execute's for any
// placement.
func InitialPreloads(g *dataflow.Graph, m *sched.Mapping) (map[uint16][][]byte, error) {
	plan, err := newGraphPlan(g, 1)
	if err != nil {
		return nil, err
	}
	pre := map[uint16][][]byte{}
	for _, eid := range g.Edges() {
		d := plan.delayIters(eid)
		if d == 0 {
			continue
		}
		e := g.Edge(eid)
		cfg := plan.edgeConfig(eid)
		tokens := make([][]byte, d)
		if m.Proc[e.Src] != m.Proc[e.Snk] && cfg.Mode == Static {
			blk := make([]byte, cfg.PayloadBytes)
			for i := range tokens {
				tokens[i] = blk
			}
		} else {
			for i := range tokens {
				tokens[i] = []byte{}
			}
		}
		pre[uint16(eid)] = tokens
	}
	return pre, nil
}
