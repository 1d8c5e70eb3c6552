package spi

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Progress watchdog: a distributed (or blocked in-process) run can stall
// silently — a peer black-holing frames, a lost credit, a blocked-mapping
// bug — with every processor goroutine parked inside an SPI receive or a
// full BBS window. The watchdog polls a monotone progress sum (actor
// firings plus per-edge send/ack totals); when it stops moving for the
// configured window the run is declared stalled: a per-edge diagnostic
// snapshot lands in the observer, every blocked actor is released via
// CloseAll, and the caller gets a *StallError naming the actors that never
// finished instead of a hang. The same machinery propagates a context
// deadline over the whole run.

// StallError reports a run aborted by the progress watchdog: no actor
// fired and no edge moved a message or credit for the whole window.
type StallError struct {
	// Node is the reporting node of a distributed run (0 in-process).
	Node int
	// Window is the configured no-progress window that elapsed.
	Window time.Duration
	// Stalled lists the local actors that had not completed all their
	// firings when the watchdog fired, sorted by name; Firings maps each
	// to the firings it did complete.
	Stalled []string
	Firings map[string]int
	// Edges names the edges that held queued or unacknowledged messages
	// when the watchdog fired — where the blocked actors were waiting.
	Edges []string
}

func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spi: node %d stalled: no progress for %v", e.Node, e.Window)
	if len(e.Stalled) > 0 {
		fmt.Fprintf(&b, "; stalled actors:")
		for i, name := range e.Stalled {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, " %s (%d firings)", name, e.Firings[name])
		}
	}
	if len(e.Edges) > 0 {
		fmt.Fprintf(&b, "; pending edges: %s", strings.Join(e.Edges, ", "))
	}
	return b.String()
}

// progressSum is the runtime half of the watchdog's monotone progress
// counter: total messages sent plus total acknowledgements/credits
// received across every edge. Both mirrors only ever grow, so a stable
// sum means no wire or queue movement at all.
func (r *Runtime) progressSum() int64 {
	var sum int64
	for _, e := range r.snapshotEdges() {
		sum += e.sentMsgs.Load() + e.ackedMsgs.Load()
	}
	return sum
}

// firedSum totals completed firings across this node's actors.
func (env *execEnv) firedSum() int64 {
	var sum int64
	env.eachActor(func(_ *procPlan, a *actorSlot) { sum += a.fired.Load() })
	return sum
}

// watchConfig parameterizes one watched run.
type watchConfig struct {
	stall time.Duration   // no-progress window; 0 disables the stall watchdog
	ctx   context.Context // bounds the whole run; nil means unbounded
	o     *obs.Observer   // receives the stall diagnostic dump (nil-safe)
	node  int             // reporting node for errors and trace events
}

func (w watchConfig) armed() bool {
	return w.stall > 0 || (w.ctx != nil && w.ctx.Done() != nil)
}

// runWatched is env.run with the watchdog alongside: it
// returns the per-processor outcomes plus the watchdog's verdict — a
// *StallError, the context error, or nil if the run finished (or failed) on
// its own.
func (env *execEnv) runWatched(base, iterations int, w watchConfig) ([]error, error) {
	if !w.armed() {
		return env.run(base, iterations), nil
	}
	done := make(chan struct{})
	var (
		wg   sync.WaitGroup
		werr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		werr = env.watch(done, w, iterations)
	}()
	errs := env.run(base, iterations)
	close(done)
	wg.Wait()
	return errs, werr
}

// watch polls for progress until the run finishes, the context expires, or
// the no-progress window elapses. On stall or cancellation it dumps the
// diagnostic snapshot, closes every runtime edge and aborts the node's
// links, turning the silent deadlock into an ErrClosed cascade the
// processors report normally.
func (env *execEnv) watch(done <-chan struct{}, w watchConfig, iterations int) error {
	var ctxDone <-chan struct{}
	if w.ctx != nil {
		ctxDone = w.ctx.Done()
	}
	// Poll at a quarter of the window so detection lags the true stall by
	// at most window/4; a stall is declared only after a full window with
	// a frozen progress sum.
	var tick <-chan time.Time
	if w.stall > 0 {
		interval := w.stall / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	last := env.progress()
	lastMove := time.Now()
	for {
		select {
		case <-done:
			return nil
		case <-ctxDone:
			err := fmt.Errorf("spi: node %d run cancelled: %w", w.node, w.ctx.Err())
			env.dumpStall(w, "deadline", time.Since(lastMove), iterations)
			env.release()
			return err
		case <-tick:
			if cur := env.progress(); cur != last {
				last = cur
				lastMove = time.Now()
				continue
			}
			silent := time.Since(lastMove)
			if silent < w.stall {
				continue
			}
			serr := env.stallError(w.node, w.stall, iterations)
			env.dumpStall(w, "stall", silent, iterations)
			env.release()
			return serr
		}
	}
}

// progress is the node-wide monotone progress sum the watchdog polls.
func (env *execEnv) progress() int64 {
	return env.firedSum() + env.rt.progressSum()
}

// stallError names the actors that had not completed all iterations when
// the watchdog fired.
func (env *execEnv) stallError(node int, window time.Duration, iterations int) *StallError {
	e := &StallError{Node: node, Window: window, Firings: map[string]int{}}
	env.eachActor(func(_ *procPlan, a *actorSlot) {
		if got := int(a.fired.Load()); got < iterations {
			e.Stalled = append(e.Stalled, a.name)
			e.Firings[a.name] = got
		}
	})
	sort.Strings(e.Stalled)
	for _, ed := range env.rt.snapshotEdges() {
		if ed.qlen.Load() > 0 || ed.sentMsgs.Load() != ed.ackedMsgs.Load() {
			e.Edges = append(e.Edges, ed.displayName())
		}
	}
	return e
}

// dumpStall snapshots every edge's queue/credit state into the observer:
// one counter tick for the event, per-edge gauges for occupancy and the
// unacknowledged window, and one trace instant per edge so the stall is
// visible on the timeline next to the traffic that preceded it.
func (env *execEnv) dumpStall(w watchConfig, kind string, silent time.Duration, iterations int) {
	if w.o == nil {
		return
	}
	w.o.Counter("spi_watchdog_fired_total", "Runs aborted by the progress watchdog.", obs.L("kind", kind)).Inc()
	tr := w.o.Tracer()
	tr.Instant("watchdog", kind, w.o.Pid(), 0,
		obs.A("node", int64(w.node)), obs.A("silent_ms", silent.Milliseconds()))
	for _, e := range env.rt.snapshotEdges() {
		name := e.displayName()
		l := obs.L("edge", name)
		queued := e.qlen.Load()
		sent := e.sentMsgs.Load()
		acked := e.ackedMsgs.Load()
		w.o.Gauge("spi_watchdog_edge_queued", "Messages queued per edge at the last watchdog dump.", l).Set(queued)
		w.o.Gauge("spi_watchdog_edge_outstanding", "Unacknowledged messages per edge at the last watchdog dump.", l).Set(sent - acked)
		closed := int64(0)
		if e.closedBit.Load() {
			closed = 1
		}
		tr.Instant("watchdog", "edge:"+name, w.o.Pid(), int(e.cfg.ID),
			obs.A("queued", queued), obs.A("sent", sent), obs.A("acked", acked), obs.A("closed", closed))
	}
	env.eachActor(func(_ *procPlan, a *actorSlot) {
		if got := a.fired.Load(); int(got) < iterations {
			tr.Instant("watchdog", "actor:"+a.name, w.o.Pid(), actorRowBase,
				obs.A("firings", got), obs.A("iterations", int64(iterations)))
		}
	})
}

// watchVerdict folds the watchdog's verdict into the per-processor
// outcome: the watchdog's release cascades ErrClosed (or, out of an
// aborted link, ErrLinkClosed) through every blocked processor, so when
// the watchdog fired, its error — not that noise — is the root cause. A cancelled run always reports the
// cancellation (concurrent processor and link errors are collateral of
// the teardown the caller asked for, on this node or a peer); for a
// stall, a genuine kernel failure that happens to coincide still wins.
func watchVerdict(runErr, wdErr error) error {
	if wdErr == nil {
		return runErr
	}
	if cancelled(wdErr) || runErr == nil || collateral(runErr) {
		return wdErr
	}
	return runErr
}

// collateral reports whether err is what a released actor returns: its
// runtime edge was closed, or the link it was writing to was aborted.
func collateral(err error) bool {
	return errors.Is(err, ErrClosed) || errors.Is(err, transport.ErrLinkClosed)
}

// cancelled reports whether err stems from a context cancellation or
// deadline.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
