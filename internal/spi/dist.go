package spi

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Distributed execution: run one node's share of a mapped dataflow graph,
// with edges that cross nodes carried over a transport.Link instead of the
// in-process queue. Every node executes the same plan (same VTS bounds,
// same mode/protocol selection, same preloaded delays), so an N-node run
// is bit-identical to the single-process Execute of the same graph — which
// is the one-node case of this file. A static run compiles the spec of its
// own node alone (ExecuteDistributed) and lowers it like any other
// (lowerPartition); open, the SPI_init of a deployment, is shared with
// standing deployments (OpenPartition).

// DistOptions configures one node of a distributed execution.
type DistOptions struct {
	// Transport carries the inter-node links (e.g. transport.TCP).
	Transport transport.Transport
	// Node is this process's node index in [0, len(Addrs)).
	Node int
	// Addrs[n] is the address node n listens on. len(Addrs) is the node
	// count.
	Addrs []string
	// NodeOf[p] is the node hosting processor p. Nil means the identity
	// mapping (processor p on node p), which requires len(Addrs) >=
	// NumProcs.
	NodeOf []int
	// Listener optionally supplies a pre-bound listener for Addrs[Node],
	// so callers can bind ":0" first and exchange the real address.
	Listener transport.Listener
	// Retry configures dial retry/backoff (zero value = transport.DefaultRetry).
	Retry transport.RetryConfig
	// Context, when non-nil, bounds the whole execution: cancelling it
	// interrupts dial retry backoff during setup AND aborts a running
	// graph — every blocked actor is released and the run returns the
	// context error (wrapped in a DegradedError when Degrade is set).
	// Use context.WithDeadline to give a run a hard time budget.
	Context context.Context
	// Reconnect enables transparent link resumption: a dropped connection
	// is re-dialed (dialer side) or awaited (acceptor side) and the
	// unacknowledged frame suffix replayed, so transient network faults
	// are invisible to the dataflow run. The zero value keeps the original
	// fail-fast behavior.
	Reconnect transport.ReconnectConfig
	// Degrade selects graceful degradation: when a peer is declared dead
	// (reconnects exhausted, or fail-fast link error), only the actors
	// transitively starved by that peer stop; the rest of the graph drains
	// to completion and ExecuteDistributed returns partial stats alongside
	// a *DegradedError naming the dead peers and starved actors. Without
	// it a link failure aborts the whole node (the original behavior).
	Degrade bool
	// SendTimeout / IdleTimeout / CloseTimeout parameterize each link;
	// see transport.LinkConfig.
	SendTimeout  time.Duration
	IdleTimeout  time.Duration
	CloseTimeout time.Duration
	// Heartbeat enables transport-level liveness probing on every link:
	// an idle link is PINGed each interval, and a peer silent for
	// PeerTimeout (default 4×Heartbeat) is declared dead and routed into
	// the reconnect/degrade path — catching black-holed connections that
	// never surface an I/O error. 0 disables; probing is local policy, a
	// peer that does not probe still answers. See transport.LinkConfig.
	Heartbeat   time.Duration
	PeerTimeout time.Duration
	// StallTimeout arms a progress watchdog over the run: if no local
	// actor fires and no edge moves a message or credit for this long,
	// the run is declared stalled — a per-edge queue/credit snapshot is
	// dumped to Obs, every blocked actor is released, and the run ends
	// with a *StallError naming the stalled actors (as DegradedError's
	// cause in degrade mode) instead of hanging forever. 0 disables.
	StallTimeout time.Duration
	// Batch has no effect; kept until a `benchmark` PR stops naming it
	// (transport.BatchConfig).
	Batch transport.BatchConfig
	// PiggybackAcks lets each link carry this node's acknowledgements on
	// its outgoing DATA frames (local policy; any peer decodes them),
	// collapsing the standalone ACK stream of UBS edges. Counts appear in
	// the per-edge statistics (EdgeStats.AcksPiggybacked).
	PiggybackAcks bool
	// Resync carries the §4 resynchronization verdict onto the wire: the
	// suppression set is computed from the graph and mapping at setup
	// (ResyncSuppression), and every link declares its part of it in the
	// handshake manifest — UBS acks on edges whose synchronization other
	// sync paths cover are then never sent, standalone or piggybacked. A
	// peer that did not opt in, or whose computed set disagrees on an edge
	// of the link, is refused at the handshake, naming the edge. Suppressed
	// counts appear in the per-edge statistics (EdgeStats.AcksSuppressed).
	Resync bool
	// Block is the vectorization blocking factor B: every node fires B
	// consecutive iterations per super-iteration and block-aligned
	// cross-node edges carry one packed B-token DATA frame per block.
	// All nodes must use the same value — the HELLO blocked flag and the
	// edge manifest reject mismatched peers. 0 or 1 is scalar
	// execution, bit-identical to today's wire format.
	Block int
	// VectorKernels optionally maps locally-hosted actors to native
	// block-firing kernels (see VectorKernel); others are lifted from
	// their scalar Kernel. Ignored when Block <= 1.
	VectorKernels map[dataflow.ActorID]VectorKernel
	// State supplies checkpoint/restore hooks per stateful actor name to a
	// standing deployment (OpenPartition), whose Runs return the
	// checkpoints; a static run takes none.
	State map[string]StateHooks
	// Obs, when non-nil, instruments the run: per-edge SPI counters,
	// per-link transport counters, kernel firing latencies, and trace
	// events all land in the observer's registry and tracer. Nil (the
	// default) leaves the run uninstrumented.
	Obs *obs.Observer
	// Links, when non-nil, supplies pre-established message links instead
	// of having ExecuteDistributed dial/accept transport connections
	// itself: Transport, Listener, Retry, and Reconnect are ignored, and
	// the run neither closes nor aborts any transport connection — it
	// calls Links.Finish and leaves the lifecycle to the provider. The
	// session layer (internal/session) uses this to run many concurrent
	// executions of one graph over a single shared link per node pair.
	Links LinkProvider
}

// LinkProvider supplies the message links of one execution, decoupling a
// run from transport connection setup. Connect is called once per peer
// node, in ascending node order; Finish exactly once, after the last
// send of the run (graceful) or on setup/run failure (abortive).
type LinkProvider interface {
	// Connect returns the link carrying the given cross-node edges to
	// peer and attaches h as the link's inbound dispatcher for this
	// execution. decls is the local half of the edge manifest, for
	// validation against whatever the provider established.
	Connect(peer int, decls []transport.EdgeDecl, h transport.Handler) (MessageLink, error)
	// Finish ends this execution's use of the links. graceful mirrors
	// the Close-vs-Abort distinction of owned links: false means peers
	// must treat the shared edges as failed.
	Finish(graceful bool)
}

// DegradedError reports a distributed run that finished in degraded mode:
// some peers were lost, the surviving actors drained, and the returned
// ExecStats cover only the work that completed. Peers maps each dead peer
// node to its link failure; Starved lists the local actors that could not
// finish because their inputs or outputs died.
type DegradedError struct {
	Node    int
	Peers   map[int]error
	Starved []string
	// Firings maps each starved actor to the firings it completed before
	// stalling — how far it got toward the run's iteration count.
	Firings map[string]int
	Cause   error
}

func (e *DegradedError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spi: node %d degraded", e.Node)
	if len(e.Peers) > 0 {
		peers := make([]int, 0, len(e.Peers))
		for p := range e.Peers {
			peers = append(peers, p)
		}
		sort.Ints(peers)
		fmt.Fprintf(&b, "; dead peers:")
		for _, p := range peers {
			fmt.Fprintf(&b, " node %d (%v)", p, e.Peers[p])
		}
	}
	if len(e.Starved) > 0 {
		fmt.Fprintf(&b, "; starved actors: %s", strings.Join(e.Starved, ", "))
	}
	return b.String()
}

func (e *DegradedError) Unwrap() error { return e.Cause }

// placedPlan plans the graph at a blocking factor and places it on a mapping
// and a processor→node assignment; every node's spec comes out of it.
func placedPlan(g *dataflow.Graph, m *sched.Mapping, nodeOf []int, nodes, block int, static, resync bool) (*graphPlan, error) {
	plan, err := newGraphPlan(g, block)
	if err == nil {
		err = plan.place(m, nodeOf, nodes, static, resync)
	}
	return plan, err
}

// byActorName re-keys a kernel table from actor IDs to actor names, the
// executor core's one keying (dataflow refuses duplicate names).
func byActorName[K any](g *dataflow.Graph, byID map[dataflow.ActorID]K) map[string]K {
	byName := make(map[string]K, len(byID))
	for a, k := range byID {
		byName[g.Actor(a).Name] = k
	}
	return byName
}

// linkHandler adapts a transport.Link's inbound traffic to one Runtime. It
// records which edges the link carries so a dead link closes exactly those
// edges — the distributed form of failure propagation.
type linkHandler struct {
	rt    *Runtime
	edges []transport.EdgeDecl
	peer  int
	fails *peerFails
}

func (h *linkHandler) HandleData(edge uint16, msg []byte) { h.rt.DeliverData(edge, msg) }
func (h *linkHandler) HandleAck(edge uint16, count uint32) {
	h.rt.DeliverAck(edge, count)
}

// HandleFin closes exactly one edge: the peer declared that its half is
// permanently done (its hosting actor starved), so local receivers drain
// and local senders stop — without touching the link's other edges.
func (h *linkHandler) HandleFin(edge uint16) { h.rt.CloseEdge(EdgeID(edge)) }

func (h *linkHandler) HandleLinkClose(err error) {
	if err == nil {
		// Graceful GOODBYE: the peer completed its run. Its data frames all
		// precede the GOODBYE in wire order, so everything this node still
		// needs is already queued; the local edges must stay open because
		// this node may still be producing — edges with initial delays
		// legitimately carry messages the finished peer never consumes.
		return
	}
	h.fails.record(h.peer, err)
	for _, d := range h.edges {
		h.rt.CloseEdge(EdgeID(d.ID))
	}
}

// peerFails records the first failure per peer node, so a degraded run can
// report which peers died and the fail-fast path can name its root cause.
type peerFails struct {
	mu   sync.Mutex
	errs map[int]error
}

func (f *peerFails) record(peer int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.errs == nil {
		f.errs = map[int]error{}
	}
	if f.errs[peer] == nil {
		f.errs[peer] = err
	}
}

// first returns the failure of the lowest-numbered dead peer (deterministic
// across runs), or nil.
func (f *peerFails) first() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	best := -1
	for p := range f.errs {
		if best < 0 || p < best {
			best = p
		}
	}
	if best < 0 {
		return nil
	}
	return f.errs[best]
}

func (f *peerFails) snapshot() map[int]error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.errs) == 0 {
		return nil
	}
	out := make(map[int]error, len(f.errs))
	for p, err := range f.errs {
		out[p] = err
	}
	return out
}

// decl is a cross-node edge's handshake manifest entry. config sets one of
// the two byte bounds, the one its mode uses.
func (e *PartEdge) decl() transport.EdgeDecl {
	cfg := e.config()
	return transport.EdgeDecl{ID: e.ID, Mode: uint8(cfg.Mode), Out: e.Out, Bytes: uint32(max(cfg.PayloadBytes, cfg.MaxBytes)),
		Protocol: e.Protocol, Capacity: e.Capacity}
}

// peerDecls groups the spec's cross-node edges by peer node, in edge
// order — the local half of each link's handshake manifest.
func (spec *PartitionSpec) peerDecls() map[int][]transport.EdgeDecl {
	var peers map[int][]transport.EdgeDecl // stays nil for a node without peers
	for i := range spec.Edges {
		if e := &spec.Edges[i]; crossesWorkers(e) {
			if peers == nil {
				peers = map[int][]transport.EdgeDecl{}
			}
			peers[e.Peer] = append(peers[e.Peer], e.decl())
		}
	}
	return peers
}

// open is the SPI_init of a deployment, the same for a static run and a
// standing one; env is spec lowered. Every cross-processor edge is
// initialized on the local runtime before any link comes up, so inbound
// DATA frames always find their queue; then one link per peer node is
// established (dialed and accepted, or taken from opts.Links), the local
// half of each cross-node edge is bound to its link, and the delay tokens
// are replayed — sender-side only, so each crosses the wire exactly once.
// On failure nothing is left open.
func (env *execEnv) open(spec *PartitionSpec, opts DistOptions) error {
	// What the spec fixes is not the options' to say.
	opts.Node, opts.Addrs, opts.Block = spec.Node, spec.Addrs, env.block
	env.observe(opts.Obs)
	for i := range env.edges {
		s := &env.edges[i]
		if s.local() {
			continue
		}
		var err error
		if s.tx, s.rx, err = env.rt.Init(s.cfg); err != nil {
			return err
		}
	}

	peers := spec.peerDecls()
	if len(peers) > 0 && opts.Transport == nil && opts.Links == nil {
		return errors.New("spi: distributed run needs a transport or a link provider")
	}
	env.stopResume = func() {}
	mlinks := make(map[int]MessageLink, len(peers))
	if opts.Links != nil {
		// Ascending peer order, so a provider that admits or rejects
		// per-peer does so deterministically.
		order := make([]int, 0, len(peers))
		for peer := range peers {
			order = append(order, peer)
		}
		sort.Ints(order)
		for _, peer := range order {
			ml, err := opts.Links.Connect(peer, peers[peer], &linkHandler{rt: env.rt, edges: peers[peer], peer: peer, fails: &env.fails})
			if err != nil {
				opts.Links.Finish(false)
				return err
			}
			mlinks[peer] = ml
		}
		env.provider = opts.Links
	} else {
		var err error
		if env.links, env.stopResume, err = connectPeers(env.rt, peers, &env.fails, env.resync, opts); err != nil {
			return err
		}
		for p, l := range env.links {
			mlinks[p] = l
		}
	}

	for i := range env.edges {
		s := &env.edges[i]
		if s.peer < 0 {
			continue
		}
		s.link = mlinks[s.peer]
		var err error
		if s.out {
			err = env.rt.BindRemoteSender(s.cfg.ID, s.link)
		} else {
			err = env.rt.BindRemoteReceiver(s.cfg.ID, s.link)
		}
		if err != nil {
			env.finish(false)
			return err
		}
	}
	for i := range env.edges {
		s := &env.edges[i]
		if len(s.preload) == 0 {
			continue
		}
		if err := s.tx.SendBatch(s.preload); err != nil {
			env.finish(false)
			return fmt.Errorf("spi: preload edge %s: %w", s.name, err)
		}
	}
	return nil
}

// release unblocks every actor of the deployment wherever it is parked:
// closing the runtime edges wakes those waiting on a queue or a credit,
// aborting the owned links those inside a link write (a full resend
// buffer), which is on no runtime edge.
func (env *execEnv) release() {
	env.rt.CloseAll()
	for _, l := range env.links {
		l.Abort()
	}
}

// finish ends the deployment's use of its links. Graceful: owned links
// drain with the GOODBYE exchange, so peers still consuming see a completed
// run. Otherwise everything is released and the links aborted — not closed:
// the peers must observe a failure so they close the shared edges, not a
// GOODBYE that looks like a normal completion. A provider is told which of
// the two its sessions should mimic. Links send asynchronously, so a drain
// may report that the last frames sent were lost: finish returns the first.
func (env *execEnv) finish(graceful bool) error {
	if !graceful {
		env.release()
	}
	var lost error
	if env.provider != nil {
		env.provider.Finish(graceful)
	} else if graceful {
		closed := make(chan error, len(env.links))
		for _, l := range env.links {
			go func(l *transport.Link) { closed <- l.Close() }(l)
		}
		for range env.links {
			if err := <-closed; err != nil && lost == nil {
				lost = err
			}
		}
	}
	env.stopResume()
	return lost
}

// ExecuteDistributed runs this node's processors of the mapped graph for
// the given iteration count, connecting to the peer nodes named in opts.
// Kernels are required only for actors mapped to this node. All nodes must
// run the same graph, mapping, iteration count, and node assignment; the
// handshake rejects peers whose edge manifests disagree. It compiles its own
// node's spec (BuildPartition) and runs it like ExecutePartition does.
func ExecuteDistributed(g *dataflow.Graph, m *sched.Mapping, kernels map[dataflow.ActorID]Kernel, iterations int, opts DistOptions) (*ExecStats, error) {
	if iterations <= 0 {
		return nil, fmt.Errorf("spi: iterations = %d", iterations)
	}
	if len(opts.Addrs) == 0 {
		return nil, errors.New("spi: distributed run needs at least one address")
	}
	spec, err := BuildPartition(g, m, opts.NodeOf, len(opts.Addrs), opts.Node, opts.Block, opts.Resync)
	if err != nil {
		return nil, err
	}
	spec.Addrs, spec.Iterations = opts.Addrs, iterations
	var vkernels map[string]VectorKernel
	if spec.Block > 1 {
		vkernels = byActorName(g, opts.VectorKernels)
	}
	return executeSpec(spec, byActorName(g, kernels), vkernels, opts)
}

// ExecutePartition is the static run of a ready spec — what
// ExecuteDistributed does once it has compiled its node's, for a caller that
// compiled one ahead of time (a session server runs one spec per session):
// lower it, open, fire the spec's iteration range, close. Kernels are keyed
// by actor name. Nothing is checkpointed — no tail rings, no kernel clocks,
// no State hooks; a run that hands its in-flight tokens on is a standing
// deployment's (OpenPartition). What the spec fixes is taken from it, as in
// OpenPartition; opts.VectorKernels, keyed by actor ID, are not consulted.
func ExecutePartition(spec *PartitionSpec, kernels map[string]Kernel, opts DistOptions) (*ExecStats, error) {
	return executeSpec(spec, kernels, nil, opts)
}

// executeSpec is the one static run; vkernels are the run's native block
// kernels by actor name (nil: every actor is lifted from its scalar kernel).
func executeSpec(spec *PartitionSpec, kernels map[string]Kernel, vkernels map[string]VectorKernel, opts DistOptions) (*ExecStats, error) {
	if spec.Iterations <= 0 {
		return nil, fmt.Errorf("spi: partition iterations = %d", spec.Iterations)
	}
	if spec.BaseIter < 0 {
		return nil, fmt.Errorf("spi: partition base iteration = %d", spec.BaseIter)
	}
	env, err := lowerPartition(spec, kernels, vkernels)
	if err != nil {
		return nil, err
	}
	env.degrade = opts.Degrade
	if err := env.open(spec, opts); err != nil {
		return nil, err
	}

	iterations := spec.Iterations
	procErrs, wdErr := env.runWatched(spec.BaseIter, iterations, watchConfig{
		stall: opts.StallTimeout, ctx: opts.Context, o: opts.Obs, node: env.node,
	})
	runErr := watchVerdict(collapseErrs(procErrs), wdErr)
	// Degraded runs close gracefully: surviving peers already received FINs
	// for the starved edges, and a GOODBYE lets them finish their own
	// drains normally.
	lost := env.finish(runErr == nil || opts.Degrade)
	if runErr == nil && lost != nil {
		runErr = fmt.Errorf("spi: node %d: %w", env.node, lost)
	}

	// Fold in what the links did with this node's acks: how many rode
	// outgoing DATA frames instead of standalone ACK frames, and how many
	// the resynchronization verdict kept off the wire entirely.
	for _, l := range env.links {
		for edge, n := range l.PiggybackedAcks() {
			env.rt.foldLinkAcks(EdgeID(edge), n, 0)
		}
		for edge, n := range l.SuppressedAcks() {
			env.rt.foldLinkAcks(EdgeID(edge), 0, n)
		}
	}

	stats := env.stats(iterations)
	if opts.Degrade {
		peerErrs := env.fails.snapshot()
		var starved []string
		firings := map[string]int{}
		var cause error
		for i, perr := range procErrs {
			if perr == nil {
				continue
			}
			if cause == nil || errors.Is(cause, ErrClosed) && !errors.Is(perr, ErrClosed) {
				cause = perr
			}
			for ai := range env.procs[i].actors {
				name := env.procs[i].actors[ai].name
				starved = append(starved, name)
				firings[name] = stats.ActorFirings[name]
			}
		}
		if wdErr != nil && (cause == nil || collateral(cause) || cancelled(wdErr)) {
			// The watchdog's release is what cascaded ErrClosed and link
			// teardown errors through the processors; the stall or
			// cancellation is the root.
			cause = wdErr
		}
		if cause == nil && len(peerErrs) == 0 {
			return stats, nil
		}
		if cause == nil {
			cause = env.fails.first()
		}
		sort.Strings(starved)
		return stats, &DegradedError{Node: env.node, Peers: peerErrs, Starved: starved, Firings: firings, Cause: cause}
	}
	if runErr != nil {
		return nil, env.rooted(runErr)
	}
	return stats, nil
}

// rooted names the link failure behind a run that died of closed edges.
func (env *execEnv) rooted(runErr error) error {
	if cause := env.fails.first(); cause != nil && errors.Is(runErr, ErrClosed) {
		return fmt.Errorf("spi: node %d: %w (link failure: %v)", env.node, runErr, cause)
	}
	return runErr
}

// connectPeers establishes one link per peer node: this node dials every
// lower-numbered peer (with retry/backoff, since peers boot in arbitrary
// order) and accepts connections from every higher-numbered one. The
// deterministic dial direction means each pair establishes exactly one
// connection. With reconnection enabled the listener stays open after
// setup, routing RESUME connections from re-dialing peers back to their
// established links; the returned stop function shuts that dispatcher
// down (it is a no-op otherwise).
func connectPeers(rt *Runtime, peers map[int][]transport.EdgeDecl, fails *peerFails, resync []uint16, opts DistOptions) (map[int]*transport.Link, func(), error) {
	stopNothing := func() {}
	if len(peers) == 0 {
		return nil, stopNothing, nil
	}
	links := map[int]*transport.Link{}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	me := opts.Node
	lcfg := transport.LinkConfig{
		Node:          me,
		SendTimeout:   opts.SendTimeout,
		IdleTimeout:   opts.IdleTimeout,
		CloseTimeout:  opts.CloseTimeout,
		Heartbeat:     opts.Heartbeat,
		PeerTimeout:   opts.PeerTimeout,
		Reconnect:     opts.Reconnect,
		PiggybackAcks: opts.PiggybackAcks,
		Blocked:       opts.Block > 1,
		ResyncEdges:   resync,
		Obs:           opts.Obs,
	}
	handlerFor := func(peer int) ([]transport.EdgeDecl, transport.Handler, error) {
		decls := peers[peer]
		if decls == nil {
			return nil, nil, fmt.Errorf("no shared edges with node %d", peer)
		}
		return decls, &linkHandler{rt: rt, edges: decls, peer: peer, fails: fails}, nil
	}

	expectAccept := 0
	for peer := range peers {
		if peer > me {
			expectAccept++
		}
	}

	var (
		mu       sync.Mutex
		firstErr error
	)
	record := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	addLink := func(peer int, l *transport.Link) {
		mu.Lock()
		links[peer] = l
		mu.Unlock()
	}
	// lookupResume routes a RESUME handshake to the established link it
	// belongs to, identified by (peer node, session token).
	lookupResume := func(peer int, token uint64) *transport.Link {
		mu.Lock()
		defer mu.Unlock()
		if l := links[peer]; l != nil && l.Token() == token {
			return l
		}
		return nil
	}

	var wg sync.WaitGroup
	var ln transport.Listener
	if expectAccept > 0 {
		ln = opts.Listener
		if ln == nil {
			var err error
			ln, err = opts.Transport.Listen(opts.Addrs[me])
			if err != nil {
				return nil, stopNothing, err
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got := 0; got < expectAccept; {
				conn, err := ln.Accept()
				if err != nil {
					record(err)
					return
				}
				l, err := transport.AcceptConn(conn, lcfg, handlerFor, lookupResume)
				if err != nil {
					if opts.Reconnect.Enabled() {
						continue // a faulty first attempt; the peer re-dials
					}
					record(err)
					return
				}
				if l == nil {
					continue // RESUME routed to an established link
				}
				addLink(l.PeerNode(), l)
				got++
			}
		}()
	}
	for peer := range peers {
		if peer >= me {
			continue
		}
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			addr := opts.Addrs[peer]
			conn, err := transport.DialRetry(ctx, opts.Transport, addr, opts.Retry)
			if err != nil {
				record(fmt.Errorf("could not reach node %d at %s: %w", peer, addr, err))
				return
			}
			decls, h, _ := handlerFor(peer)
			dcfg := lcfg
			dcfg.Edges = decls
			if opts.Reconnect.Enabled() {
				dcfg.Redial = func() (transport.Conn, error) { return opts.Transport.Dial(addr) }
			}
			l, err := transport.NewLink(conn, dcfg, h)
			if err != nil {
				record(fmt.Errorf("handshake with node %d at %s: %w", peer, addr, err))
				return
			}
			addLink(peer, l)
		}(peer)
	}
	// The accept loop blocks in ln.Accept with no context awareness of its
	// own; close the listener when the context dies so a cancelled node
	// (e.g. an orchestrated worker aborting mid-connect) unwinds instead
	// of waiting forever for a peer that will never dial.
	connected := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			// Only unblock the accept loop; the goroutines record their
			// own, more descriptive errors (the dialers are ctx-aware).
			if ln != nil {
				ln.Close()
			}
		case <-connected:
		}
	}()
	wg.Wait()
	close(connected)
	if firstErr == nil {
		for peer := range peers {
			if links[peer] == nil {
				firstErr = fmt.Errorf("spi: no link established with node %d", peer)
				break
			}
		}
	}
	if firstErr != nil {
		if ln != nil {
			ln.Close()
		}
		// Abort, not Close: a graceful GOODBYE here would both stall this
		// node for the full close timeout (the peers never answer — they
		// are mid-epoch) and present to those peers as a clean shutdown,
		// leaving their receivers parked instead of failing fast.
		for _, l := range links {
			l.Abort()
		}
		return nil, stopNothing, firstErr
	}
	stop := stopNothing
	if ln != nil {
		if opts.Reconnect.Enabled() {
			// Keep accepting: severed higher-numbered peers re-dial us with
			// RESUME, and lookupResume hands the connection to their link.
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					conn, err := ln.Accept()
					if err != nil {
						return // listener closed: dispatcher retires
					}
					l, err := transport.AcceptConn(conn, lcfg, handlerFor, lookupResume)
					if err != nil {
						continue
					}
					if l != nil {
						// A fresh handshake after setup is not part of this
						// run; drop it rather than leak a link.
						l.Abort()
					}
				}
			}()
			stop = func() {
				ln.Close()
				<-done
			}
		} else {
			ln.Close()
		}
	}
	return links, stop, nil
}

// PeerDecls computes, for each peer node, the handshake manifest of
// cross-node edges node me shares with it under the given graph, mapping,
// and node assignment — exactly the declarations ExecuteDistributed would
// put in its HELLO. A caller establishing long-lived, session-multiplexed
// links ahead of any execution (spinode -serve, spiload) uses it so every
// session-scoped run finds its edges already declared on the shared link.
// block must match the executions' DistOptions.Block.
func PeerDecls(g *dataflow.Graph, m *sched.Mapping, nodeOf []int, me, block int) (map[int][]transport.EdgeDecl, error) {
	nodes := me + 1
	for _, n := range nodeOf {
		nodes = max(nodes, n+1)
	}
	plan, err := placedPlan(g, m, nodeOf, nodes, block, true, false)
	if err != nil {
		return nil, err
	}
	return plan.spec(me).peerDecls(), nil
}
