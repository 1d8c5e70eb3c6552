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
// bug — with every processor parked inside an SPI receive or a full BBS
// window. The watchdog polls a monotone progress sum (actor firings plus
// per-edge send/ack totals); when it stops moving for the configured window
// the run is declared stalled: a per-edge diagnostic snapshot lands in the
// observer, every blocked actor is released via CloseAll, and the caller
// gets a *StallError naming the actors that never finished instead of a
// hang. The same machinery propagates a context deadline over the whole run,
// the moment the context is done.

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

// watchdog is one run's progress watchdog: two callbacks that cost a run
// nothing until they fire. The stall poll re-arms itself every window/4, the
// context callback runs once the context is done. The first to fire records
// the verdict, dumps the snapshot and releases the deployment (closes every
// runtime edge and aborts the node's links) under mu, which the end of the
// run takes too: nothing is released once run has returned.
type watchdog struct {
	env        *execEnv
	stall      time.Duration   // no-progress window; 0 disables the stall poll
	ctx        context.Context // bounds the whole run; nil means unbounded
	o          *obs.Observer   // receives the diagnostic dump (nil-safe)
	iterations int
	every      time.Duration // stall poll period: a stall is declared at most window/4 late

	mu       sync.Mutex
	over     bool  // the verdict is in, or the run has ended
	err      error // the verdict
	last     int64 // the progress sum at lastMove
	lastMove time.Time
	poll     *time.Timer
	stopCtx  func() bool
}

// run is env.run under the watchdog: the run's own outcome plus the
// verdict — a *StallError, the context error, or nil if the run finished
// (or failed) on its own.
func (wd *watchdog) run(base int) (runErr, verdict error) {
	if wd.stall <= 0 && (wd.ctx == nil || wd.ctx.Done() == nil) {
		return wd.env.run(base, wd.iterations), nil
	}
	wd.mu.Lock()
	wd.last, wd.lastMove = wd.env.progress(), time.Now()
	if wd.stall > 0 {
		wd.every = max(wd.stall/4, time.Millisecond)
		wd.poll = time.AfterFunc(wd.every, wd.check)
	}
	if wd.ctx != nil {
		wd.stopCtx = context.AfterFunc(wd.ctx, wd.cancel)
	}
	wd.mu.Unlock()
	runErr = wd.env.run(base, wd.iterations)
	return runErr, wd.disarm()
}

// check is one stall poll.
func (wd *watchdog) check() {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	if wd.over {
		return
	}
	if cur := wd.env.progress(); cur != wd.last {
		wd.last, wd.lastMove = cur, time.Now()
	} else if silent := time.Since(wd.lastMove); silent >= wd.stall {
		wd.fire(wd.stallError(), "stall", silent)
		return
	}
	wd.poll.Reset(wd.every)
}

func (wd *watchdog) cancel() {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	if !wd.over {
		wd.fire(wd.cancelErr(), "deadline", time.Since(wd.lastMove))
	}
}

func (wd *watchdog) cancelErr() error {
	return fmt.Errorf("spi: node %d run cancelled: %w", wd.env.node, wd.ctx.Err())
}

// fire records the verdict, dumps the snapshot and releases the
// deployment. Caller holds mu.
func (wd *watchdog) fire(err error, kind string, silent time.Duration) {
	wd.over, wd.err = true, err
	wd.dump(kind, silent)
	wd.env.release()
}

// disarm stops both timers once the run has returned and reports the
// verdict. A context done by now is the verdict even if its callback has
// not run yet: the run may have ended on the teardown a peer's
// cancellation cascaded, and the caller should see the deadline it set.
func (wd *watchdog) disarm() error {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	if wd.poll != nil {
		wd.poll.Stop()
	}
	if wd.stopCtx != nil && !wd.stopCtx() && !wd.over {
		wd.err = wd.cancelErr()
	}
	wd.over = true
	return wd.err
}

// progress is the node-wide monotone progress sum the watchdog polls; every
// term only ever grows, so a stable sum means nothing moved at all.
func (env *execEnv) progress() (sum int64) {
	env.eachActor(func(_ *procPlan, a *actorSlot) { sum += a.fired.Load() })
	env.rt.eachEdge(func(e *edge) { sum += e.sentMsgs.Load() + e.ackedMsgs.Load() })
	return sum
}

// stallError names the actors that had not completed all iterations when
// the watchdog fired.
func (wd *watchdog) stallError() *StallError {
	e := &StallError{Node: wd.env.node, Window: wd.stall, Firings: map[string]int{}}
	wd.env.eachActor(func(_ *procPlan, a *actorSlot) {
		if got := int(a.fired.Load()); got < wd.iterations {
			e.Stalled = append(e.Stalled, a.name)
			e.Firings[a.name] = got
		}
	})
	sort.Strings(e.Stalled)
	wd.env.rt.eachEdge(func(ed *edge) {
		if ed.qlen.Load() > 0 || ed.outstanding() != 0 {
			e.Edges = append(e.Edges, ed.displayName())
		}
	})
	return e
}

// outstanding is the edge's unacknowledged messages if it acks at all.
func (e *edge) outstanding() (n int64) {
	if e.acks() {
		n = e.sentMsgs.Load() - e.ackedMsgs.Load()
	}
	return n
}

// dump snapshots every edge's queue/credit state into the observer:
// one counter tick for the event, per-edge gauges for occupancy and the
// unacknowledged window, and one trace instant per edge so the stall is
// visible on the timeline next to the traffic that preceded it.
func (wd *watchdog) dump(kind string, silent time.Duration) {
	o := wd.o
	if o == nil {
		return
	}
	o.Counter("spi_watchdog_fired_total", "Runs aborted by the progress watchdog.", obs.L("kind", kind)).Inc()
	tr := o.Tracer()
	tr.Instant("watchdog", kind, o.Pid(), 0,
		obs.A("node", int64(wd.env.node)), obs.A("silent_ms", silent.Milliseconds()))
	wd.env.rt.eachEdge(func(e *edge) {
		name := e.displayName()
		l := obs.L("edge", name)
		queued, sent, acked := e.qlen.Load(), e.sentMsgs.Load(), e.ackedMsgs.Load()
		o.Gauge("spi_watchdog_edge_queued", "Messages queued per edge at the last watchdog dump.", l).Set(queued)
		o.Gauge("spi_watchdog_edge_outstanding", "Unacknowledged messages per acknowledging edge at the last watchdog dump.", l).Set(e.outstanding())
		closed := int64(0)
		if e.closedBit.Load() {
			closed = 1
		}
		tr.Instant("watchdog", "edge:"+name, o.Pid(), int(e.cfg.ID),
			obs.A("queued", queued), obs.A("sent", sent), obs.A("acked", acked), obs.A("closed", closed))
	})
	wd.env.eachActor(func(_ *procPlan, a *actorSlot) {
		if got := a.fired.Load(); int(got) < wd.iterations {
			tr.Instant("watchdog", "actor:"+a.name, o.Pid(), actorRowBase,
				obs.A("firings", got), obs.A("iterations", int64(wd.iterations)))
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
