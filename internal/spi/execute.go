package spi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Functional execution: run a mapped dataflow graph's actors as real
// computations. Each processor fires its actor order per iteration on a
// goroutine of its own — except the last, which fires on the goroutine
// that runs the deployment; interprocessor edges ride the SPI software runtime
// (with the same mode/protocol selection as the platform lowering), and
// same-processor edges are plain local queues. This is the programming
// model a downstream SPI user writes against: supply a Kernel per actor,
// get the paper's separation of computation from communication for free.
//
// This file is the executor core: the compiled environment (execEnv) and
// the one firing loop (fire) that every mode runs — scalar, blocked,
// distributed (dist.go) and standing deployments (partition.go) differ in
// the spec their environment is lowered from and what its edges are bound
// to, never in the lowering or the loop. See DESIGN.md, "Executor core".

// Kernel is an actor's functional body for one block firing: it receives
// the packed payload from every input edge (keyed by edge ID; edges whose
// initial delay covers this iteration deliver nil) and returns the packed
// payload for every output edge. Omitted outputs send empty payloads.
//
// Input payloads (and the map itself) are valid only for the duration of
// the call: the executor reuses the buffers for the next firing, so a
// kernel that carries state across firings must copy what it keeps.
// Output payloads are copied out (sent, packed or queued) before the actor
// fires again: a kernel may return an input slice, or the same map and
// buffers from every firing.
type Kernel func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error)

// ExecStats reports a functional run.
type ExecStats struct {
	// Iterations completed.
	Iterations int
	// SPI aggregates the interprocessor runtime statistics.
	SPI EdgeStats
	// Edges breaks the SPI traffic down per interprocessor edge, sorted
	// by edge ID.
	Edges []EdgeTraffic
	// ActorFirings counts completed firings per actor hosted on this
	// node. In a degraded run a starved actor's count shows how far it
	// got before its inputs or outputs died.
	ActorFirings map[string]int
	// LocalTransfers counts same-processor payload hand-offs.
	LocalTransfers int64
}

// execEnv is one node's deployment ready to run, the single shape every
// execution mode runs in. lowerPartition (partition.go) builds it from the
// node's PartitionSpec; open (dist.go) brings its edges and links up, and
// run fires it. Everything the firing loop touches per token is resolved
// once: an actor holds its kernel and pointers to its edge slots, a slot
// holds its queue or communication actors, its bounds and its reusable
// buffers.
type execEnv struct {
	node int
	// block is the blocking factor B of the firing loop: every actor fires
	// B iterations back to back. Scalar execution is B = 1.
	block int
	rt    *Runtime
	procs []procPlan
	// edges holds every edge with an endpoint on this node.
	edges []edgeSlot
	// resync is the ack-suppression set the links declare (nil = none).
	resync []uint16
	// timed has the loop measure kernel time per processor (procPlan.busy),
	// the load signal a standing deployment's Runs report (OpenPartition).
	timed bool

	// degrade selects graceful degradation (DistOptions.Degrade): a failing
	// processor starves only its own edges instead of closing the whole
	// runtime, so independent actors keep draining.
	degrade bool

	// Set by open: the links the deployment owns, by peer node, or the
	// provider that owns them instead; the RESUME dispatcher's stop.
	links      map[int]*transport.Link
	provider   LinkProvider
	stopResume func()
	fails      peerFails
}

// procPlan is one hosted processor: its actors in schedule order and the
// kernel input maps its firings reuse.
type procPlan struct {
	proc   int
	actors []actorSlot
	in     map[dataflow.EdgeID][]byte
	// busy is the kernel time of the last run in nanoseconds (timed
	// environments only); localTransfers counts same-processor hand-offs.
	busy           int64
	localTransfers int64
}

// actorSlot is one actor of a processor's schedule.
type actorSlot struct {
	name string
	// kernel fires once per iteration of the block.
	kernel  Kernel
	in, out []*edgeSlot
	// fired counts the firings of the current run. The actor is owned by
	// its processor's goroutine; the progress watchdog reads concurrently.
	fired atomic.Int64
	obs   actorObs
}

// edgeSlot is one dataflow edge as the node's plan sees it. A
// same-processor edge (neither out nor in) is a token queue owned by its
// processor's goroutine. A cross-processor edge is an SPI edge: both
// endpoints hosted (out and in) makes it an in-process one, exactly one
// makes it ride the link to peer. Producer-side and consumer-side fields
// belong to the goroutines of the respective processors.
type edgeSlot struct {
	id   dataflow.EdgeID
	name string
	// bmax bounds one token's bytes (VTS b_max); a static token is
	// zero-padded to exactly bmax.
	bmax    int
	dynamic bool
	// block is the number of iterations per message: B on every
	// cross-processor edge of a blocked run (one packed slab per block),
	// else 1 (token-granular).
	block int

	// Same-processor edge: the tokens in flight. A token outlives the firing
	// that produced it, and with it the kernel's claim on the buffer, so the
	// queue owns its tokens: emit copies each one into a buffer off spare,
	// where gather puts a token's buffer once its consumer's firing is over.
	queue, spare [][]byte

	out, in bool
	peer    int // node hosting the far endpoint, -1 when both are here
	tx      *Sender
	rx      *Receiver
	link    MessageLink // the link a cross-node edge is bound to
	// preload holds the delay messages the producing side replays at open.
	preload [][]byte

	// Consumer side: the tokens of the block being fired (receive buffers
	// reused per token, views into slabIn, or a window of queue) and the
	// slab receive buffer.
	toks   [][]byte
	slabIn []byte
	// Producer side: the open slab and the fill tokens packed into it (the
	// carry between blocks); ready, the message the next flush sends when
	// due — the slab the block filled, whose buffer the slab after next
	// opens in, or a scalar run's token; and the optional checkpoint hook
	// keeping the last delay payloads emitted (standing deployments).
	slabOut []byte
	fill    int
	ready   []byte
	due     bool
	tail    *tailRing
}

func (s *edgeSlot) local() bool { return !s.out && !s.in }

// tailRing keeps the last depth payloads pushed, oldest first, in buffers
// it reuses: a payload may alias a kernel buffer the next firing overwrites.
// A static token is kept zero-padded to pad bytes, as the wire carries it.
type tailRing struct {
	depth, pad int
	q          [][]byte
}

func (t *tailRing) push(payload []byte) {
	var buf []byte
	if len(t.q) < t.depth {
		t.q = append(t.q, nil)
	} else {
		buf = t.q[0][:0]
		copy(t.q, t.q[1:])
	}
	buf = append(buf, payload...)
	for len(buf) < t.pad {
		buf = append(buf, 0)
	}
	t.q[len(t.q)-1] = buf
}

// actorRowBase offsets kernel-firing trace rows (tid = actorRowBase +
// processor) past the per-edge rows (tid = edge ID) and the transport's
// session rows, so one Chrome trace shows edges, links, and kernels on
// distinct tracks.
const actorRowBase = 1000

// actorObs is one actor's firing instrumentation; the zero value (no
// observer) does nothing.
type actorObs struct {
	firings *obs.Counter
	latency *obs.Histogram
	tr      *obs.Tracer
	pid     int
	name    string
	tid     int
}

// done closes the kernel span opened at start for the block at iter.
func (ao *actorObs) done(start int64, iter int) {
	ao.tr.Span("kernel", ao.name, ao.pid, ao.tid, start, obs.A("iter", int64(iter)))
	ao.latency.Observe(float64(ao.tr.Now() - start))
}

// eachActor visits every hosted actor, in processor and schedule order.
func (env *execEnv) eachActor(visit func(p *procPlan, a *actorSlot)) {
	for pi := range env.procs {
		p := &env.procs[pi]
		for ai := range p.actors {
			visit(p, &p.actors[ai])
		}
	}
}

// observe attaches the observer's per-edge and per-actor handles. Call
// before open: edges pick their counters up at Init.
func (env *execEnv) observe(o *obs.Observer) {
	if o == nil {
		return
	}
	env.rt.SetObserver(o)
	env.eachActor(func(p *procPlan, a *actorSlot) {
		l := obs.L("actor", a.name)
		a.obs = actorObs{
			firings: o.Counter("spi_actor_firings_total", "Completed actor firings.", l),
			latency: o.Histogram("spi_actor_fire_latency_us", "Kernel execution time per firing in microseconds.", obs.LatencyBucketsUS, l),
			tr:      o.Tracer(), pid: o.Pid(), name: a.name, tid: actorRowBase + p.proc,
		}
	})
}

// checkKernels verifies every hosted actor can fire.
func (env *execEnv) checkKernels() (err error) {
	env.eachActor(func(_ *procPlan, a *actorSlot) {
		if err == nil && a.kernel == nil {
			err = fmt.Errorf("spi: actor %s (node %d) has no kernel", a.name, env.node)
		}
	})
	return err
}

// run fires iterations base..base+n-1 on every hosted processor, the last
// on the calling goroutine and every other on one of its own (so a
// one-processor node starts none), and returns the per-processor outcomes
// (parallel to env.procs). A failing processor releases its peers: in
// fail-fast mode by closing every runtime edge, in degraded mode by starving
// only the edges incident to its own actors.
func (env *execEnv) run(base, n int) []error {
	env.eachActor(func(_ *procPlan, a *actorSlot) { a.fired.Store(0) })
	errs := make([]error, len(env.procs))
	last := len(env.procs) - 1 // lowerPartition refuses a spec without processors
	var wg sync.WaitGroup
	wg.Add(last)
	for i := range last {
		go func() {
			defer wg.Done()
			errs[i] = env.fireProc(&env.procs[i], base, n)
		}()
	}
	errs[last] = env.fireProc(&env.procs[last], base, n)
	wg.Wait()
	return errs
}

// fireProc fires one processor and, should it fail, releases its peers.
func (env *execEnv) fireProc(p *procPlan, base, n int) error {
	err := env.fire(p, base, n)
	if err != nil && env.degrade {
		env.starve(p)
	} else if err != nil {
		env.rt.CloseAll()
	}
	return err
}

// starve propagates one processor's death along exactly its own edges:
// every cross-processor edge incident to its actors is closed (receivers
// drain what is already queued, then see ErrClosed) and, for cross-node
// edges, FIN'd so the remote half starves too — out-edge FINs cut the data
// supply, in-edge FINs release remote BBS senders waiting on credits that
// will never come. Actors not reachable from the dead processor keep
// running to completion.
func (env *execEnv) starve(p *procPlan) {
	for ai := range p.actors {
		a := &p.actors[ai]
		for _, slots := range [2][]*edgeSlot{a.in, a.out} {
			for _, s := range slots {
				if s.local() {
					continue // dies with the processor
				}
				if s.link != nil {
					// Best effort: the link may be the very thing that died.
					_ = s.link.SendFin(uint16(s.id))
				}
				env.rt.CloseEdge(EdgeID(s.id))
			}
		}
	}
}

// collapseErrs reduces per-processor outcomes to one error, preferring the
// root cause: a processor that died on its own kernel or bound violation,
// not the peers unblocked with ErrClosed as a consequence.
func collapseErrs(errs []error) error {
	var closedErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrClosed) {
			if closedErr == nil {
				closedErr = err
			}
			continue
		}
		return err
	}
	return closedErr
}

// clock and charge time a block firing's kernel invocations, and the packing
// of their outputs, into its processor's busy time — where somebody reads it:
// a standing deployment. The pair is read once per block firing, never
// around a send; read around every kernel call, it cost elastic_loopback
// at B = 16 a fifth of its units/s (2-CPU host).
func (env *execEnv) clock() time.Time {
	if env.timed {
		return time.Now()
	}
	return time.Time{}
}

func (p *procPlan) charge(start time.Time) {
	if !start.IsZero() {
		p.busy += time.Since(start).Nanoseconds()
	}
}

// fire is the one per-processor firing loop, self-timed: block by block,
// each actor of the schedule fires its nb iterations back to back (nb = B,
// or the remainder on a final partial block), blocking only on the data its
// input edges deliver. Scalar execution is B = 1; a partition epoch is the
// same loop from base = BaseIter. Kernels see the same iteration numbers
// and the same input bytes in the same order whatever B is and wherever
// the edges are bound, which is what makes every mode bit-identical.
func (env *execEnv) fire(p *procPlan, base, n int) error {
	p.busy = 0
	for iter, end := base, base+n; iter < end; iter += env.block {
		nb := min(env.block, end-iter)
		for ai := range p.actors {
			if err := env.fireActor(p, &p.actors[ai], iter, nb); err != nil {
				return err
			}
		}
	}
	return nil
}

// fireActor fires one actor for iterations iter..iter+n-1: gather the n
// tokens of every input edge, invoke the kernel n times, route every output
// token, and then send what the block completed: at most one message per
// cross-processor edge. The kernel span closes when the block's last
// invocation returns, before its outputs go out: time blocked in a send is
// the edge's, not the kernel's.
func (env *execEnv) fireActor(p *procPlan, a *actorSlot, iter, n int) error {
	for _, s := range a.in {
		if err := s.gather(p, n); err != nil {
			return fmt.Errorf("spi: actor %s edge %s: %w", a.name, s.name, err)
		}
	}
	span := a.obs.tr.Now()
	start := env.clock()
	for j := 0; j < n; j++ {
		clear(p.in)
		for _, s := range a.in {
			p.in[s.id] = s.toks[j]
		}
		out, err := a.kernel(iter+j, p.in)
		if err != nil {
			return fmt.Errorf("spi: actor %s iteration %d: %w", a.name, iter+j, err)
		}
		if j == n-1 {
			a.obs.done(span, iter)
		}
		// The Kernel contract lets a kernel recycle its output buffers
		// between firings, so each firing's outputs are consumed before the
		// next: a scalar run's n is 1, and its ready token is sent before
		// the kernel runs again.
		for _, s := range a.out {
			if err := s.emit(out[s.id]); err != nil {
				return fmt.Errorf("spi: actor %s edge %s: %w", a.name, s.name, err)
			}
		}
	}
	p.charge(start)
	for _, s := range a.out {
		if err := s.flush(n < env.block); err != nil {
			return fmt.Errorf("spi: actor %s edge %s: send: %w", a.name, s.name, err)
		}
	}
	a.obs.firings.Add(int64(n))
	a.fired.Add(int64(n))
	return nil
}

// gather collects into s.toks[:n] the n tokens the next block firing
// consumes: a window of the local queue, one received slab split into
// views, or n token-granular receives. Remote payloads land in buffers
// reused across firings (each edge has one sink, so they are its
// processor's alone), keeping the steady-state receive path
// allocation-free; the Kernel contract covers the reuse.
func (s *edgeSlot) gather(p *procPlan, n int) error {
	switch {
	case s.local():
		if len(s.queue) < n {
			return fmt.Errorf("local underflow: block needs %d tokens, %d queued (the schedule order or the delay does not cover the block)", n, len(s.queue))
		}
		s.spare = append(s.spare, s.toks...) // the last firing is done with them
		s.toks, s.queue = s.queue[:n:n], s.queue[n:]
		p.localTransfers += int64(n)
	case s.block > 1:
		slab, err := s.rx.ReceiveInto(s.slabIn)
		if err != nil {
			return fmt.Errorf("recv: %w", err)
		}
		s.slabIn = slab
		if s.toks, err = UnpackSlab(slab, n, s.bmax, s.dynamic, s.toks); err != nil {
			return err
		}
	default:
		for len(s.toks) < n {
			s.toks = append(s.toks, nil)
		}
		for j := 0; j < n; j++ {
			payload, err := s.rx.ReceiveInto(s.toks[j])
			if err != nil {
				return fmt.Errorf("recv: %w", err)
			}
			s.toks[j] = payload
		}
	}
	return nil
}

// emit routes the next output token of a block firing: packed (copied) into
// the open slab of a blocked edge, held as a scalar run's ready message on a
// cross-processor edge, or copied into a recycled buffer of the local queue.
// It never sends: flush does, once the block's kernels are done. The VTS bound is enforced and short static payloads are zero-padded
// to the fixed transfer size on every route.
func (s *edgeSlot) emit(payload []byte) error {
	if s.block > 1 {
		if err := s.pack(payload); err != nil {
			return err
		}
	} else {
		if len(payload) > s.bmax {
			return fmt.Errorf("kernel produced %d bytes, bound %d", len(payload), s.bmax)
		}
		if !s.dynamic && len(payload) != s.bmax {
			padded := make([]byte, s.bmax)
			copy(padded, payload)
			payload = padded
		}
		if s.local() {
			var buf []byte
			if k := len(s.spare); k > 0 {
				buf, s.spare = s.spare[k-1], s.spare[:k-1]
			}
			s.queue = append(s.queue, append(buf[:0], payload...))
			return nil
		}
		s.ready, s.due = payload, true // a scalar run: the firing's one token, sent before the kernel runs again
	}
	if s.tail != nil {
		s.tail.push(payload)
	}
	return nil
}

// pack appends one token to the open slab, opening one in slabOut's buffer
// when none is (fill 0). The slab a token fills becomes the ready message —
// one per block firing, since a block emits B tokens — and slabOut takes the
// buffer the last one was sent from. So every slab holds exactly the B
// tokens one consumer block reads, whatever the edge's delay: the d mod B
// delay tokens that do not make a whole slab are the first slab's head
// (preloadDelay, partition.go), and as many of every block's tokens are the
// next one's.
func (s *edgeSlot) pack(payload []byte) error {
	if s.fill == 0 {
		s.slabOut = beginSlab(s.slabOut, s.block, s.dynamic)
	}
	slab, err := appendSlabToken(s.slabOut, s.fill, payload, s.bmax, s.dynamic)
	if err != nil {
		return err
	}
	if s.slabOut, s.fill = slab, s.fill+1; s.fill == s.block {
		s.ready, s.slabOut, s.fill, s.due = slab, s.ready, 0, true
	}
	return nil
}

// flush sends the message a block firing completed, if any. A run that ends
// inside a block (short) without filling the open slab sends it as it
// stands: its consumer's final block needs only its first tokens, and a
// dynamic slab's size table is zero past the last one packed.
func (s *edgeSlot) flush(short bool) error {
	switch {
	case s.due:
		s.due = false
		if s.block > 1 && s.fill == 0 {
			// Nothing was packed past the full slab, so the next can open in
			// its buffer: an edge without a carry packs into one buffer only.
			s.ready, s.slabOut = s.slabOut, s.ready
			return s.tx.Send(s.slabOut)
		}
		return s.tx.Send(s.ready)
	case short && s.block > 1:
		return s.tx.Send(s.slabOut)
	}
	return nil
}

// stats reports the deployment's run so far.
func (env *execEnv) stats(iterations int) *ExecStats {
	st := &ExecStats{
		Iterations:   iterations,
		SPI:          env.rt.TotalStats(),
		Edges:        env.rt.AllStats(),
		ActorFirings: map[string]int{},
	}
	for pi := range env.procs {
		st.LocalTransfers += env.procs[pi].localTransfers
	}
	env.eachActor(func(_ *procPlan, a *actorSlot) { st.ActorFirings[a.name] = int(a.fired.Load()) })
	return st
}

// Execute runs the mapped graph for the given iteration count. Every actor
// must have a kernel. Edge payloads are bounded by the VTS analysis: a
// kernel returning more than b_max bytes on an edge is an error, exactly as
// the hardware library would reject it.
func Execute(g *dataflow.Graph, m *sched.Mapping, kernels map[dataflow.ActorID]Kernel, iterations int) (*ExecStats, error) {
	return ExecuteBlocked(g, m, kernels, iterations, VecOptions{})
}

// ExecuteBlocked runs the mapped graph like Execute but vectorized by
// vec.Block: B consecutive iterations fire per super-iteration and every
// interprocessor edge moves B tokens as one packed slab, paying headers,
// credits, and acks once per block. Outputs are
// bit-identical to the scalar run. vec.Block <= 1 is Execute exactly. It is
// ExecuteDistributed with every processor on the one node.
func ExecuteBlocked(g *dataflow.Graph, m *sched.Mapping, kernels map[dataflow.ActorID]Kernel, iterations int, vec VecOptions) (*ExecStats, error) {
	return ExecuteDistributed(g, m, kernels, iterations, DistOptions{
		// One address is one node; with no peer it is never listened on.
		Addrs: []string{"local"}, NodeOf: make([]int, m.NumProcs),
		Block: vec.Block, StallTimeout: vec.StallTimeout, Context: vec.Context,
	})
}
