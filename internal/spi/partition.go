package spi

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/sched"
)

// The compiled form and its lowering. A PartitionSpec is one node's share
// of a mapped graph — its processors with their schedules, every edge
// touching them with its planned SPI configuration — self-contained: it
// needs neither the graph, the mapping nor the VTS analysis. The planner
// builds it (plan.go: BuildPartition for a static run's own node,
// BuildPartitions for each worker of an orchestrated placement, whose
// coordinator ships it over the control plane), and lowerPartition, the one
// lowering, compiles it into the execEnv every execution mode opens and
// fires (execute.go, dist.go): once, for a static run (ExecutePartition,
// dist.go), or as a standing deployment fired range by range
// (OpenPartition). A spec is read-only once built: lowering copies what it
// keeps, so any number of deployments may lower one spec concurrently.
//
// A spec additionally carries resumption state: BaseIter offsets the
// iteration numbers the kernels see, Preload holds the in-flight tokens
// of every delayed edge at the epoch boundary, and State holds per-actor
// checkpoint blobs. A standing deployment (OpenPartition) returns the
// matching Tails/State from every Run, which is what makes live migration a
// checkpoint-and-replay of pure data.

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
	// Mode and Bytes describe one token: Mode 0 is static (fixed Bytes
	// payloads), 1 dynamic (bound Bytes). Protocol 0 is BBS with Capacity
	// messages, 1 UBS.
	Mode     uint8
	Bytes    uint32
	Protocol uint8
	Capacity uint32
	// Delay is the edge's initial delay in whole graph iterations.
	Delay uint32
	// Block is the number of iterations per message: the run's blocking
	// factor on every cross-processor edge — one packed slab per block,
	// Capacity counted in slabs — and 1 on a same-processor edge.
	Block uint32
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
	// It is stamped only when the run asked for resynchronization, and a
	// deployment acts on it wherever the edge crosses workers: the link
	// declares it in its handshake manifest and swallows the acks.
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
// a mapped graph. It replaces the full graph + mapping a spinode
// normally loads: a worker holding only its spec can execute, RESUME
// after a severed connection, and checkpoint for migration.
type PartitionSpec struct {
	// Graph is the graph name (kernels fold it into their hashes).
	Graph string
	// Block is the run's blocking factor B: every actor fires B iterations
	// back to back (0 or 1 is scalar execution).
	Block int
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
}

// PartResult reports one epoch of partition execution: Tails are the
// checkpoint at its end, Firings and ProcNS cover the epoch alone.
type PartResult struct {
	// Tails holds, per delayed edge produced here, the in-flight
	// payloads at the epoch end — the next epoch's Preload.
	Tails map[uint16][][]byte
	// Firings counts completed firings per actor.
	Firings map[string]int
	// ProcNS is the kernel-execution time per hosted processor in
	// nanoseconds, parallel to the spec's Procs — the load signal the
	// coordinator's placement consumes.
	ProcNS []int64
}

// crossesWorkers reports whether an edge has exactly one endpoint on this
// worker, i.e. rides a link to a peer.
func crossesWorkers(e *PartEdge) bool {
	return !e.SameProc && (e.Out != e.In)
}

// config is the SPI edge a cross-processor edge is initialized as: the
// token's own framing and bound in a scalar run, and in a blocked one
// SPI_dynamic framing bounded by a full slab — a run that ends inside a
// block sends its open slab short.
func (e *PartEdge) config() EdgeConfig {
	cfg := EdgeConfig{ID: EdgeID(e.ID), Name: e.Name, Mode: Mode(e.Mode),
		Protocol: Protocol(e.Protocol), Capacity: int(e.Capacity)}
	switch {
	case e.Block > 1:
		cfg.MaxBytes = SlabBound(int(e.Bytes), cfg.Mode == Dynamic, int(e.Block))
		cfg.Mode = Dynamic
	case cfg.Mode == Dynamic:
		cfg.MaxBytes = int(e.Bytes)
	default:
		cfg.PayloadBytes = int(e.Bytes)
	}
	return cfg
}

// delayTokens builds a delayed edge's in-flight payloads at iteration 0,
// the canonical delay tokens of a fresh run: empty payloads on a
// same-processor edge (whose local queue preloads nothing) and on a dynamic
// one, zero blocks of the fixed transfer size on a cross-processor static
// one. Whatever is preloaded copies, so the blocks share one buffer.
func (e *PartEdge) delayTokens() [][]byte {
	tok := []byte{}
	if !e.SameProc && Mode(e.Mode) == Static {
		tok = make([]byte, e.Bytes)
	}
	tokens := make([][]byte, e.Delay)
	for i := range tokens {
		tokens[i] = tok
	}
	return tokens
}

// lowerPartition validates a spec and compiles it into the execEnv its node
// runs — the only code that builds one. Everything the firing loop touches
// per token is resolved here: an actor gets its kernel and pointers to its
// edge slots, a slot
// its SPI configuration, its bounds and its delay messages. The spec is
// only read. Its BaseIter and Iterations are not consulted: whoever runs the
// environment names the range.
func lowerPartition(spec *PartitionSpec, kernels map[string]Kernel) (*execEnv, error) {
	if len(spec.Procs) == 0 {
		return nil, errors.New("spi: partition hosts no processors")
	}
	if spec.Node < 0 || spec.Workers < 1 || spec.Node >= spec.Workers {
		return nil, fmt.Errorf("spi: partition node %d of %d workers", spec.Node, spec.Workers)
	}
	env := &execEnv{node: spec.Node, block: max(spec.Block, 1), rt: NewRuntime(),
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
		want := env.block
		if e.SameProc {
			want = 1
		}
		if max(int(e.Block), 1) != want {
			return nil, fmt.Errorf("spi: partition edge %s has block factor %d, want %d in a run of block %d", e.Name, e.Block, want, env.block)
		}
		s := &env.edges[i]
		slots[e.ID] = s
		*s = edgeSlot{id: dataflow.EdgeID(e.ID), name: e.Name, bmax: int(e.Bytes),
			dynamic: Mode(e.Mode) == Dynamic, block: max(int(e.Block), 1), peer: -1}
		if e.SameProc {
			// The local queue itself is the in-flight state.
			s.queue = clonePayloads(spec.Preload[e.ID])
			continue
		}
		s.out, s.in = e.Out, e.In
		if crossesWorkers(e) {
			s.peer = e.Peer
			if e.SuppressAck {
				env.resync = append(env.resync, e.ID)
			}
		}
		if e.Out {
			// Sender-side only, so the delay tokens cross a wire once.
			if err := s.preloadDelay(spec.Preload[e.ID]); err != nil {
				return nil, err
			}
		}
	}

	var undeclared error
	pick := func(actor string, ids []uint16) []*edgeSlot {
		out := make([]*edgeSlot, len(ids))
		for i, id := range ids {
			if out[i] = slots[id]; out[i] == nil && undeclared == nil {
				undeclared = fmt.Errorf("spi: actor %s references undeclared edge %d", actor, id)
			}
		}
		return out
	}
	for pi := range spec.Procs {
		sp := &spec.Procs[pi]
		pp := &env.procs[pi]
		*pp = procPlan{proc: sp.Proc, actors: make([]actorSlot, len(sp.Actors)),
			in: map[dataflow.EdgeID][]byte{}}
		for ai := range sp.Actors {
			a, as := &sp.Actors[ai], &pp.actors[ai]
			as.name, as.kernel = a.Name, kernels[a.Name]
			as.in, as.out = pick(a.Name, a.In), pick(a.Name, a.Out)
		}
	}
	if undeclared != nil {
		return nil, undeclared
	}
	return env, env.checkKernels()
}

// preloadDelay turns an out-edge's d preloaded delay tokens into the
// messages open replays through its sender. Token-granular, they are the
// tokens themselves (SendBatch copies). In a blocked run they go out as
// ⌊d/B⌋ full slabs of B tokens, and the other d mod B tokens — the carry —
// open the slab the producer's first block completes, so the consumer's
// block k reads slab k whatever d is.
func (s *edgeSlot) preloadDelay(tokens [][]byte) error {
	if s.block == 1 {
		s.preload = tokens
		return nil
	}
	for _, tok := range tokens {
		if err := s.pack(tok); err != nil {
			return fmt.Errorf("spi: partition edge %s preload: %w", s.name, err)
		}
		if s.due {
			// A preloaded slab is replayed at open: no slab opens in it.
			s.preload, s.ready, s.due = append(s.preload, s.ready), nil, false
		}
	}
	return nil
}

// PartitionRun is one worker's standing deployment of a partition: the
// runtime edges (with their delay tokens in flight), the data links to
// peer workers and the kernels, all set up once by
// OpenPartition and reused by every Run until Close.
type PartitionRun struct {
	env       *execEnv
	spec      *PartitionSpec
	opts      DistOptions
	stopWatch func() bool
	// ended refuses every Run after one that ended inside a block: that
	// Run sent its open slabs short, so no carry lines up with a later block.
	ended error
}

// OpenPartition sets up one worker's partition from its self-contained
// spec — the SPI_init of a standing deployment. Kernels are keyed by actor
// name; cross-worker edges are carried over links dialed/accepted per the
// spec's addresses (lower-numbered workers are dialed, higher-numbered
// accepted, exactly like ExecuteDistributed's node rule) or taken from
// opts.Links, and every delayed edge produced here is preloaded from the
// spec. What the spec fixes — Node, Addrs, the blocking factor, the
// suppression set — is taken from it, not from opts; of opts, the link
// tuning, Context and Obs are used. The spec's BaseIter and
// Iterations are not consulted: each Run names its own range. Cancelling
// opts.Context at any point aborts the deployment — blocked actors are
// released and the links torn down — and the caller still owes a Close.
func OpenPartition(spec *PartitionSpec, kernels map[string]Kernel, opts DistOptions) (*PartitionRun, error) {
	env, err := lowerPartition(spec, kernels)
	if err != nil {
		return nil, err
	}
	// What a standing deployment adds to the shared environment, and a static
	// run never pays for: kernel clocks (the load signal its Runs report) and
	// the checkpoint hook, a tailRing on every delayed edge produced here,
	// seeded with the spec's preload. The checkpoint is token-granular in a
	// blocked run too: the last d tokens emitted are what is in flight
	// whenever a range ends on a block boundary — sent slabs not yet consumed
	// and the carry — and a cold redeployment re-chunks them (preloadDelay).
	env.timed = true
	for i := range spec.Edges {
		e, s := &spec.Edges[i], &env.edges[i]
		if e.Out && !e.SameProc && e.Delay > 0 {
			s.tail = &tailRing{depth: int(e.Delay)}
			if !s.dynamic {
				s.tail.pad = s.bmax
			}
			for _, tok := range spec.Preload[e.ID] {
				s.tail.push(tok)
			}
		}
	}
	if err := env.open(spec, opts); err != nil {
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
// a time, each starting where the last one ended; in a blocked deployment
// only the last range may end inside a block (n not a multiple of B), and
// every later Run is refused. The run is fail-fast: a dead peer, a kernel
// error, or a cancelled context fails it, after which the deployment can
// only be closed — the coordinator re-places and re-executes the range, and
// determinism makes that bit-identical.
func (pr *PartitionRun) Run(baseIter, n int) (*PartResult, error) {
	if baseIter < 0 || n <= 0 {
		return nil, fmt.Errorf("spi: partition run of %d iterations from %d", n, baseIter)
	}
	if pr.ended != nil {
		return nil, pr.ended
	}
	env := pr.env
	if n%env.block != 0 {
		pr.ended = fmt.Errorf("spi: partition run %d..%d ended inside a %d-iteration block: the deployment runs no further range", baseIter, baseIter+n-1, env.block)
	}
	runErr := collapseErrs(env.run(baseIter, n))
	if ctx := pr.opts.Context; ctx != nil && ctx.Err() != nil {
		runErr = ctx.Err()
	}
	if runErr != nil {
		return nil, env.rooted(runErr)
	}

	res := &PartResult{
		Tails:   map[uint16][][]byte{},
		Firings: map[string]int{},
		ProcNS:  make([]int64, len(env.procs)),
	}
	for pi := range env.procs {
		res.ProcNS[pi] = env.procs[pi].busy
	}
	env.eachActor(func(_ *procPlan, a *actorSlot) { res.Firings[a.name] = int(a.fired.Load()) })
	for i := range pr.spec.Edges {
		// The in-flight tokens of a delayed edge produced here: the last
		// Delay payloads emitted, or what its local queue holds.
		switch e, s := &pr.spec.Edges[i], &env.edges[i]; {
		case s.tail != nil:
			res.Tails[e.ID] = clonePayloads(s.tail.q)
		case e.SameProc && e.Delay > 0:
			res.Tails[e.ID] = clonePayloads(s.queue)
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

func clonePayloads(in [][]byte) [][]byte {
	out := make([][]byte, len(in))
	for i, p := range in {
		out[i] = append([]byte(nil), p...)
	}
	return out
}

// BuildPartitions compiles one PartitionSpec per worker from the full
// graph, processor mapping, and processor→worker placement — the
// coordinator-side complement of OpenPartition. block is the run's blocking
// factor (0 or 1 is scalar); with resync the §4 verdict is computed and
// stamped on the edges as SuppressAck. The returned specs are those of a
// fresh run; the caller fills the per-epoch fields (BaseIter, Iterations,
// Addrs, and from a checkpoint Preload). The placement names a
// worker for every processor, and every worker must host at least one.
func BuildPartitions(g *dataflow.Graph, m *sched.Mapping, workerOf []int, workers, block int, resync bool) ([]*PartitionSpec, error) {
	plan, err := placedPlan(g, m, workerOf, workers, block, false, resync)
	if err != nil {
		return nil, err
	}
	specs := make([]*PartitionSpec, workers)
	for w := range specs {
		spec := plan.spec(w)
		if len(spec.Procs) == 0 {
			return nil, fmt.Errorf("spi: worker %d hosts no processors", w)
		}
		specs[w] = spec
	}
	return specs, nil
}

// BuildPartition compiles the spec of node me alone, under a static node
// list: what a static run needs of the plan (ExecuteDistributed calls it per
// run; a session server once, for every session to lower). A nil nodeOf is
// the identity, processor p on node p, and the list may name nodes that host
// nothing — only me must host a processor. The caller fills in Addrs and
// the iteration range.
func BuildPartition(g *dataflow.Graph, m *sched.Mapping, nodeOf []int, nodes, me, block int, resync bool) (*PartitionSpec, error) {
	if me < 0 || me >= nodes {
		return nil, fmt.Errorf("spi: node %d out of range [0,%d)", me, nodes)
	}
	plan, err := placedPlan(g, m, nodeOf, nodes, block, true, resync)
	if err != nil {
		return nil, err
	}
	spec := plan.spec(me)
	if len(spec.Procs) == 0 {
		return nil, fmt.Errorf("spi: node %d hosts no processors", me)
	}
	return spec, nil
}
