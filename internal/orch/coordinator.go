package orch

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/transport"
)

// CoordConfig configures one orchestrated run.
type CoordConfig struct {
	// Transport carries the control links; Addr is the control-plane
	// listen address.
	Transport transport.Transport
	Addr      string
	// Graph and Mapping are the application and its processor-level
	// schedule; placement moves processors between workers but never
	// rewrites the mapping, which is what keeps outputs bit-identical.
	Graph   *dataflow.Graph
	Mapping *sched.Mapping
	// Iterations is the total run length, EpochIters the checkpoint
	// granularity (default: the whole run is one epoch) and what the
	// blocking factor divides (epochBlock).
	Iterations int
	EpochIters int
	// MinWorkers blocks the first epoch until this many workers have
	// registered (default 1).
	MinWorkers int
	// Heartbeat / PeerTimeout probe control-link liveness: a worker whose
	// control link falls silent past the timeout is declared dead and its
	// processors are re-placed.
	Heartbeat   time.Duration
	PeerTimeout time.Duration
	// EpochTimeout bounds each phase of an epoch (prepare round, execute
	// round, abort quiescence). A worker that blows the deadline is
	// reaped like a dead one. Zero disables the reaper.
	EpochTimeout time.Duration
	// Resync has the §4 resynchronization verdict computed and stamped on
	// every dispatched partition spec: workers skip UBS acks on edges whose
	// synchronization another path already covers. Each epoch's
	// re-placement recomputes which marked edges cross workers, so the
	// suppression set follows migrations. Every data link checks its part
	// of the set at the handshake; the verdict is placement-independent.
	Resync bool
	// OnPlace optionally rewrites an epoch's placement before dispatch:
	// placement[p] is the slot (0-based participant index) hosting
	// processor p, ids the stable worker ID per slot. Forced migrations
	// in tests and spictl use it. Returning anything but the committed
	// placement ends the standing deployment.
	OnPlace func(epoch int, placement []int, ids []uint32) []int
	// OnDispatch fires once per epoch attempt, after its work (Tasks or
	// Continues) is sent — the hook chaos harnesses use to kill or choke
	// a worker mid-epoch.
	OnDispatch func(epoch int)
	// Obs receives the coordinator's epoch, deployment, abort and
	// migration-pause metrics.
	Obs *obs.Observer
}

// Report summarizes an orchestrated run.
type Report struct {
	// Digests is the folded sink digest per sink actor — bit-identical
	// to a static single-node run of the same graph, seed, and length.
	Digests map[string]uint64
	// Firings counts committed firings per actor (re-executed epochs
	// count once).
	Firings map[string]int
	// Block is the blocking factor every epoch ran at (epochBlock).
	Block int
	// Iterations is the committed run length, Epochs the number of epoch
	// attempts, Commits/Aborts their outcomes.
	Iterations int
	Epochs     int
	Commits    int
	Aborts     int
	// Deploys counts the attempts that went through the cold path (fresh
	// listeners, links and partition specs), WarmEpochs those that ran on
	// the standing deployment of the last commit; they sum to Epochs.
	Deploys    int
	WarmEpochs int
	// Migrations counts processor moves between consecutive committed
	// placements (including re-placements after a death).
	Migrations int
	// StalledTokens counts iterations whose tokens were discarded and
	// replayed because their epoch aborted — the downtime currency of a
	// migration or failure.
	StalledTokens int
	// RecoveryNS is the wall time from a failed epoch's abort to its
	// replacement's dispatch: the detection-to-recovery bound.
	RecoveryNS int64
	// WorkersSeen counts workers that ever registered, WorkersLost those
	// declared dead or reaped.
	WorkersSeen int
	WorkersLost int
}

// workerConn is the coordinator's view of one registered worker.
type workerConn struct {
	id   uint32
	name string
	link *transport.Link
}

// coordEvent is one control-plane event: a decoded message from a
// worker, a decode error, or a link closure.
type coordEvent struct {
	wc     *workerConn
	msg    any
	err    error
	closed bool
}

// coordHandler adapts one worker link's callbacks onto the shared event
// channel. Control links carry no SPI edges, so the data callbacks are
// inert. ready gates event delivery until the accept goroutine has
// finished populating the workerConn — the link's read loop starts before
// AcceptLink returns, so a fast worker could otherwise race the
// registration bookkeeping.
type coordHandler struct {
	wc     *workerConn
	ready  chan struct{}
	events chan coordEvent
}

func (h *coordHandler) HandleData(edge uint16, msg []byte)  {}
func (h *coordHandler) HandleAck(edge uint16, count uint32) {}
func (h *coordHandler) HandleFin(edge uint16)               {}
func (h *coordHandler) HandleLinkClose(err error) {
	<-h.ready
	h.events <- coordEvent{wc: h.wc, closed: true, err: err}
}
func (h *coordHandler) HandleCtrl(op byte, payload []byte) {
	<-h.ready
	msg, err := DecodeCtrl(op, payload)
	if err != nil {
		h.events <- coordEvent{wc: h.wc, err: err}
		return
	}
	h.events <- coordEvent{wc: h.wc, msg: msg}
}

// Coordinator runs the elastic control loop: register workers, place
// processors, dispatch partition specs, collect checkpoints, and
// re-place on every failure or pool change — committing an epoch only
// when every participant finished it.
type Coordinator struct {
	cfg    CoordConfig
	events chan coordEvent

	mu     sync.Mutex
	nextID uint32
	closed bool
	links  map[uint32]*transport.Link
}

// NewCoordinator validates the config and returns an unstarted
// coordinator.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Transport == nil || cfg.Graph == nil || cfg.Mapping == nil {
		return nil, fmt.Errorf("orch: coordinator needs a transport, a graph, and a mapping")
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("orch: coordinator iterations = %d", cfg.Iterations)
	}
	if cfg.EpochIters <= 0 {
		cfg.EpochIters = cfg.Iterations
	}
	if cfg.MinWorkers <= 0 {
		cfg.MinWorkers = 1
	}
	return &Coordinator{
		cfg:    cfg,
		events: make(chan coordEvent, 256),
		links:  map[uint32]*transport.Link{},
	}, nil
}

// accept runs the control listener: each inbound connection becomes a
// link whose handler feeds the shared event channel; the worker
// introduces itself with Register once its link is up.
func (c *Coordinator) accept(ln transport.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			wc := &workerConn{}
			ready := make(chan struct{})
			link, err := transport.AcceptLink(conn, transport.LinkConfig{
				Node:      1 << 16,
				Heartbeat: c.cfg.Heartbeat, PeerTimeout: c.cfg.PeerTimeout,
			}, func(peer int) ([]transport.EdgeDecl, transport.Handler, error) {
				return nil, &coordHandler{wc: wc, ready: ready, events: c.events}, nil
			})
			if err != nil {
				close(ready)
				return
			}
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				close(ready)
				link.Abort()
				return
			}
			c.nextID++
			wc.id = c.nextID
			wc.link = link
			c.links[wc.id] = link
			c.mu.Unlock()
			close(ready)
		}()
	}
}

func (c *Coordinator) alive(wc *workerConn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.links[wc.id]
	return ok
}

func (c *Coordinator) dropLink(wc *workerConn) {
	c.mu.Lock()
	delete(c.links, wc.id)
	c.mu.Unlock()
	wc.link.Abort()
}

func (c *Coordinator) closeAll() {
	c.mu.Lock()
	c.closed = true
	links := make([]*transport.Link, 0, len(c.links))
	for _, l := range c.links {
		links = append(links, l)
	}
	c.links = map[uint32]*transport.Link{}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, l := range links {
		wg.Add(1)
		go func(l *transport.Link) { defer wg.Done(); l.Close() }(l)
	}
	wg.Wait()
}

func send(wc *workerConn, msg any) error {
	op, payload := Encode(msg)
	return wc.link.SendCtrl(op, payload)
}

// epochState tracks one epoch attempt across its phases. quiescing marks
// the abort phase, where the attempt has already failed and the pump
// only waits for AbortOKs (or deaths) instead of failing again.
type epochState struct {
	epoch     uint32
	parts     []*workerConn // slot → worker
	addrs     []string      // slot → data address, once the worker is Ready
	done      []*Done
	abortOK   map[*workerConn]bool
	fail      error
	quiescing bool
}

func (es *epochState) slotOf(wc *workerConn) int {
	for i, p := range es.parts {
		if p == wc {
			return i
		}
	}
	return -1
}

// coordRun is the mutable state of one Run call; the event pump and the
// epoch loop both live on it.
type coordRun struct {
	c    *Coordinator
	ctx  context.Context
	rep  *Report
	pool []*workerConn // registered and live, sorted by stable ID
	// specs caches BuildPartitions (and the resync verdict inside it) per
	// placement: a re-deployment onto a placement seen before plans nothing.
	// A cached spec stays as built; dispatch fills the epoch into a copy.
	specs map[string][]*spi.PartitionSpec
}

// epochBlock picks the run's blocking factor: the largest B ≤ 16 that
// divides epochIters — so every epoch but a short final one ends on a block
// boundary, where the checkpoint (the last d tokens each delayed edge
// emitted) is exactly what is in flight — and whose block schedule the
// mapping admits; 1 is scalar. The cap is where blocking stops paying for
// the memory it costs (the eq. 2 bound grows with B): on elastic_loopback
// (epochs of 64, 2-CPU host) B = 16 ran 654–676k units/s, B = 32 676–704k
// with alloc_bytes_per_unit +1.5 %, B = 64 706–735k with +10 %.
func epochBlock(g *dataflow.Graph, m *sched.Mapping, epochIters int) int {
	for b := min(16, epochIters); b > 1; b-- {
		if epochIters%b == 0 && g.CheckBlockSchedule(b, m.Order) == nil {
			return b
		}
	}
	return 1
}

// deployed is a placement over a participant set, with its partitions.
type deployed struct {
	ids       []uint32 // slot → stable worker ID
	placement []int    // processor → slot
	specs     []*spi.PartitionSpec
}

// place picks the epoch's placement. It is sticky: with the participants
// of the last commit still in place, the committed placement stays unless
// balancing the measured loads afresh predicts a makespan more than 10 %
// below it — per-epoch busy times are noisy, and a migration costs a cold
// deployment.
func (r *coordRun) place(load []float64, ids []uint32, last *deployed) ([]int, error) {
	fresh, err := sched.Balance(load, len(ids))
	if err != nil || last == nil || !slices.Equal(last.ids, ids) {
		return fresh, err
	}
	makespan := func(placement []int) float64 {
		total := make([]float64, len(ids))
		for p, slot := range placement {
			total[slot] += load[p]
		}
		return slices.Max(total)
	}
	if makespan(fresh) < 0.9*makespan(last.placement) {
		return fresh, nil
	}
	return slices.Clone(last.placement), nil // OnPlace may rewrite it in place
}

func (r *coordRun) partitions(placement []int, workers int) ([]*spi.PartitionSpec, error) {
	key := fmt.Sprint(placement)
	if specs, ok := r.specs[key]; ok {
		return specs, nil
	}
	specs, err := spi.BuildPartitions(r.c.cfg.Graph, r.c.cfg.Mapping, placement, workers, r.rep.Block, r.c.cfg.Resync)
	if err == nil {
		r.specs[key] = specs
	}
	return specs, err
}

// reap declares one worker dead: drop its link, forget it in the pool.
func (r *coordRun) reap(wc *workerConn) {
	r.rep.WorkersLost++
	r.c.dropLink(wc)
	for i, p := range r.pool {
		if p == wc {
			r.pool = append(r.pool[:i], r.pool[i+1:]...)
			break
		}
	}
}

// handle applies one event: pool membership always, epoch-phase messages
// when they carry the current epoch's fencing token. Stale epochs (late
// Done from an aborted attempt, duplicate AbortOK) fall through silently
// — the token makes them harmless.
func (r *coordRun) handle(ev coordEvent, es *epochState) {
	if ev.wc == nil || ev.wc.link == nil {
		return
	}
	switch {
	case ev.closed, ev.err != nil:
		if es != nil && es.slotOf(ev.wc) >= 0 && es.fail == nil && !es.quiescing {
			es.fail = fmt.Errorf("worker %s died: %v", ev.wc.name, ev.err)
		}
		r.reap(ev.wc)
		return
	}
	switch msg := ev.msg.(type) {
	case Register:
		ev.wc.name = msg.Name
		r.rep.WorkersSeen++
		r.pool = append(r.pool, ev.wc)
		sort.Slice(r.pool, func(i, j int) bool { return r.pool[i].id < r.pool[j].id })
		send(ev.wc, Welcome{ID: ev.wc.id})
	case Ready:
		if es == nil || msg.Epoch != es.epoch {
			return
		}
		if slot := es.slotOf(ev.wc); slot >= 0 {
			es.addrs[slot] = msg.Addr
		}
	case Done:
		if es == nil || msg.Epoch != es.epoch {
			return
		}
		if slot := es.slotOf(ev.wc); slot >= 0 && es.done[slot] == nil {
			d := msg
			es.done[slot] = &d
		}
	case Fail:
		if es == nil || msg.Epoch != es.epoch || es.quiescing {
			return
		}
		if es.slotOf(ev.wc) >= 0 && es.fail == nil {
			es.fail = fmt.Errorf("worker %s: %s", ev.wc.name, msg.Msg)
		}
	case AbortOK:
		if es != nil && msg.Epoch == es.epoch && es.abortOK != nil {
			es.abortOK[ev.wc] = true
		}
	}
}

// collect waits until have holds for every slot of the epoch; at the
// phase deadline the slots it does not hold for are the laggards.
func (r *coordRun) collect(es *epochState, have func(slot int) bool) error {
	missing := func() []*workerConn {
		var lag []*workerConn
		for slot, wc := range es.parts {
			if !have(slot) {
				lag = append(lag, wc)
			}
		}
		return lag
	}
	return r.wait(es, func() bool { return len(missing()) == 0 }, missing)
}

// wait pumps events until cond holds. Outside quiescence an epoch
// failure aborts the wait; a phase deadline reaps every lagging worker.
func (r *coordRun) wait(es *epochState, cond func() bool, lagging func() []*workerConn) error {
	var deadline <-chan time.Time
	if r.c.cfg.EpochTimeout > 0 {
		tm := time.NewTimer(r.c.cfg.EpochTimeout)
		defer tm.Stop()
		deadline = tm.C
	}
	for !cond() {
		if es != nil && es.fail != nil && !es.quiescing {
			return es.fail
		}
		select {
		case <-r.ctx.Done():
			return r.ctx.Err()
		case ev := <-r.c.events:
			r.handle(ev, es)
		case <-deadline:
			if lagging == nil {
				return fmt.Errorf("orch: timed out waiting for workers")
			}
			err := fmt.Errorf("orch: epoch deadline blown")
			for _, wc := range lagging() {
				if es != nil && es.fail == nil {
					es.fail = fmt.Errorf("worker %s blew the epoch deadline", wc.name)
				}
				r.reap(wc)
			}
			if es != nil && es.fail != nil {
				err = es.fail
			}
			if es != nil && es.quiescing {
				return nil // reaped laggards count as quiesced
			}
			return err
		}
	}
	if es != nil && es.fail != nil && !es.quiescing {
		return es.fail
	}
	return nil
}

// abort quiesces a failed epoch attempt: every still-live participant is
// cancelled and must confirm (AbortOK) or die before the pool re-plans,
// so no stale execution can leak tokens into the next attempt.
func (r *coordRun) abort(es *epochState, n int) {
	r.rep.Aborts++
	r.rep.StalledTokens += n
	es.quiescing = true
	es.abortOK = map[*workerConn]bool{}
	notified := map[*workerConn]bool{}
	for _, wc := range es.parts {
		if r.c.alive(wc) && send(wc, Abort{Epoch: es.epoch}) == nil {
			notified[wc] = true
		}
	}
	quiesced := func() bool {
		for wc := range notified {
			if !es.abortOK[wc] && r.c.alive(wc) {
				return false
			}
		}
		return true
	}
	r.wait(es, quiesced, func() []*workerConn {
		var lag []*workerConn
		for wc := range notified {
			if !es.abortOK[wc] && r.c.alive(wc) {
				lag = append(lag, wc)
			}
		}
		return lag
	})
}

// Run executes the orchestrated run to completion and returns its
// report. It blocks until Iterations have committed, the context is
// cancelled, or progress becomes impossible.
func (c *Coordinator) Run(ctx context.Context) (*Report, error) {
	ln, err := c.cfg.Transport.Listen(c.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("orch: coordinator listen: %w", err)
	}
	defer ln.Close()
	go c.accept(ln)
	defer c.closeAll()

	m := c.cfg.Mapping
	// The checkpoint: the in-flight tokens of the delayed edges at the last
	// commit. A fresh spec carries iteration 0's.
	tails := map[uint16][][]byte{}
	load := make([]float64, m.NumProcs)
	for p := range load {
		load[p] = 1
	}
	rep := &Report{Digests: map[string]uint64{}, Firings: map[string]int{},
		Block: epochBlock(c.cfg.Graph, m, c.cfg.EpochIters)}
	r := &coordRun{c: c, ctx: ctx, rep: rep, specs: map[string][]*spi.PartitionSpec{}}
	o := c.cfg.Obs
	const epochsHelp = "Epoch attempts, by deployment path."
	epochsWarm := o.Counter("orch_epochs_total", epochsHelp, obs.L("kind", "warm"))
	epochsCold := o.Counter("orch_epochs_total", epochsHelp, obs.L("kind", "cold"))
	deploys := o.Counter("orch_deploys_total", "Cold deployments dispatched.")
	aborts := o.Counter("orch_aborts_total", "Epoch attempts aborted.")
	epochUS := o.Histogram("orch_epoch_us", "Committed epoch, dispatch to commit, in microseconds.", nil)
	pauseUS := o.Histogram("orch_migration_pause_us",
		"Last commit on a deployment to the first dispatch on its successor, in microseconds.", nil)

	if err := r.wait(nil, func() bool { return len(r.pool) >= c.cfg.MinWorkers }, nil); err != nil {
		return rep, fmt.Errorf("orch: waiting for %d workers: %w", c.cfg.MinWorkers, err)
	}

	var (
		committed    *deployed // participants and placement of the last commit
		standing     bool      // committed's deployment is still up on every participant
		lastCommit   time.Time
		epoch        uint32 // unique per attempt: the fencing token
		recoverStart time.Time
	)
	base := 0
	for base < c.cfg.Iterations {
		if len(r.pool) == 0 {
			// Block for a late joiner: an empty pool can still recover.
			if err := r.wait(nil, func() bool { return len(r.pool) > 0 }, nil); err != nil {
				return rep, fmt.Errorf("orch: pool empty at iteration %d: %w", base, err)
			}
		}
		n := min(c.cfg.EpochIters, c.cfg.Iterations-base)
		workers := min(len(r.pool), m.NumProcs)
		parts := append([]*workerConn(nil), r.pool[:workers]...)
		ids := make([]uint32, workers)
		for i, wc := range parts {
			ids[i] = wc.id
		}
		placement, err := r.place(load, ids, committed)
		if err != nil {
			return rep, err
		}
		if c.cfg.OnPlace != nil {
			placement = c.cfg.OnPlace(int(epoch), placement, ids)
		}
		// The standing deployment serves this epoch only if nothing about
		// it changed since every participant acknowledged its last commit.
		warm := standing && slices.Equal(committed.ids, ids) && slices.Equal(committed.placement, placement)
		cur := committed
		if !warm {
			specs, err := r.partitions(placement, workers)
			if err != nil {
				return rep, err
			}
			cur = &deployed{ids: ids, placement: placement, specs: specs}
		}
		standing = false
		rep.Epochs++
		es := &epochState{
			epoch: epoch, parts: parts,
			addrs: make([]string, workers), done: make([]*Done, workers),
		}
		// failed quiesces the attempt and sends the next one down the cold
		// path, replaying from the last commit.
		failed := func() {
			aborts.Inc()
			r.abort(es, n)
			recoverStart = time.Now()
			epoch++
		}
		dispatched := time.Now()

		if warm {
			rep.WarmEpochs++
			epochsWarm.Inc()
			for _, wc := range parts {
				send(wc, Continue{Epoch: epoch, BaseIter: base, Iterations: n})
			}
		} else {
			rep.Deploys++
			epochsCold.Inc()
			deploys.Inc()
			// Cold phase 1: prepare — fresh data listeners for the deployment.
			for _, wc := range parts {
				send(wc, Prepare{Epoch: epoch})
			}
			if err := r.collect(es, func(slot int) bool { return es.addrs[slot] != "" }); err != nil {
				if ctx.Err() != nil {
					return rep, ctx.Err()
				}
				failed()
				continue
			}
			// Cold phase 2: dispatch partition specs with the checkpoint.
			for slot, wc := range parts {
				spec := *cur.specs[slot]
				spec.BaseIter, spec.Iterations, spec.Addrs = base, n, es.addrs
				spec.Preload = map[uint16][][]byte{}
				for id, fresh := range cur.specs[slot].Preload {
					spec.Preload[id] = fresh
					if tail, ok := tails[id]; ok {
						spec.Preload[id] = tail
					}
				}
				send(wc, Task{Epoch: epoch, Spec: &spec})
			}
			if !lastCommit.IsZero() {
				pauseUS.Observe(float64(time.Since(lastCommit).Microseconds()))
				lastCommit = time.Time{}
			}
		}
		if !recoverStart.IsZero() {
			rep.RecoveryNS += time.Since(recoverStart).Nanoseconds()
			recoverStart = time.Time{}
		}
		if c.cfg.OnDispatch != nil {
			c.cfg.OnDispatch(int(epoch))
		}

		// Collect — commit only when every participant is done.
		if err := r.collect(es, func(slot int) bool { return es.done[slot] != nil }); err != nil {
			if ctx.Err() != nil {
				return rep, ctx.Err()
			}
			failed()
			continue
		}

		// Commit: fold digests, absorb checkpoints, re-learn loads, and
		// count migrations against the last committed ownership.
		rep.Commits++
		if committed != nil {
			for p, slot := range placement {
				if committed.ids[committed.placement[p]] != ids[slot] {
					rep.Migrations++
				}
			}
		}
		for slot, d := range es.done {
			for name, v := range d.Digests {
				rep.Digests[name] ^= v
			}
			for id, t := range d.Tails {
				tails[id] = t
			}
			for name, nf := range d.Firings {
				rep.Firings[name] += int(nf)
			}
			for pi, ns := range d.ProcNS {
				if pi < len(cur.specs[slot].Procs) && ns > 0 {
					load[cur.specs[slot].Procs[pi].Proc] = float64(ns)
				}
			}
		}
		committed, standing, lastCommit = cur, true, time.Now()
		epochUS.Observe(float64(lastCommit.Sub(dispatched).Microseconds()))
		base += n
		rep.Iterations = base
		epoch++
	}

	for _, wc := range r.pool {
		send(wc, Shutdown{})
	}
	return rep, nil
}
