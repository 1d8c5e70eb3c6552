package orch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/spi"
	"repro/internal/transport"
)

// KernelSet is everything a worker needs to execute one partition:
// kernels by actor name, checkpoint hooks for the stateful ones, and a
// collector that drains one epoch's sink digest contributions (called
// once per finished epoch, so failed epochs contribute nothing).
type KernelSet struct {
	Kernels map[string]spi.Kernel
	Hooks   map[string]spi.StateHooks
	Collect func() map[string]uint64
}

// KernelProvider builds a fresh KernelSet for one partition spec. It is
// called once per deployment — each Task — so kernel state always starts
// from the spec's checkpoint blobs, never from a failed attempt's
// leftovers; the warm epochs that follow on the standing deployment keep
// using the same set, and its state carries over in place.
type KernelProvider func(spec *spi.PartitionSpec) (*KernelSet, error)

// WorkerConfig configures one orchestrated worker.
type WorkerConfig struct {
	// Transport carries both the control link to the coordinator and the
	// data links to peer workers.
	Transport transport.Transport
	// Coord is the coordinator's control-plane address.
	Coord string
	// Name identifies the worker in registration and logs.
	Name string
	// Kernels builds the kernels for each dispatched partition.
	Kernels KernelProvider
	// DataAddr returns the address to bind a deployment's data listener
	// on; it is called once per deployment, with the epoch that opens it.
	// Nil defaults to "<name>-data-e<epoch>" (loopback-style unique
	// names); TCP deployments return "host:0" for an ephemeral port.
	DataAddr func(epoch uint32) string
	// Retry configures dials: the control dial to the coordinator and
	// the data dials to peers.
	Retry transport.RetryConfig
	// Heartbeat / PeerTimeout enable liveness probing on the control and
	// data links; the coordinator declares this worker dead when its
	// control link falls silent past the peer timeout.
	Heartbeat   time.Duration
	PeerTimeout time.Duration
	// Reconnect enables RESUME resumption on the data plane.
	Reconnect transport.ReconnectConfig
	// SendTimeout bounds data-plane frame writes.
	SendTimeout time.Duration
	// Obs instruments the worker's runtime edges and links.
	Obs *obs.Observer
}

// workerEvent is one decoded control message (or link closure) delivered
// to the worker's event loop.
type workerEvent struct {
	msg    any
	err    error
	closed bool
}

// workerHandler adapts the transport callbacks to the event channel. The
// worker's control link carries no SPI edges, so the data callbacks are
// inert.
type workerHandler struct{ events chan workerEvent }

func (h *workerHandler) HandleData(edge uint16, msg []byte)  {}
func (h *workerHandler) HandleAck(edge uint16, count uint32) {}
func (h *workerHandler) HandleFin(edge uint16)               {}
func (h *workerHandler) HandleLinkClose(err error) {
	h.events <- workerEvent{closed: true, err: err}
}
func (h *workerHandler) HandleCtrl(op byte, payload []byte) {
	msg, err := DecodeCtrl(op, payload)
	if err != nil {
		h.events <- workerEvent{err: err}
		return
	}
	h.events <- workerEvent{msg: msg}
}

// deployment is one standing partition deployment, owned by its serve
// goroutine: cmds feeds it warm epochs, cancel aborts it, done closes
// once the goroutine has gone. failed is set before the goroutine reports
// a Fail, after which it takes no more epochs.
type deployment struct {
	cancel context.CancelFunc
	cmds   chan Continue
	done   chan struct{}
	failed atomic.Bool
}

// Worker registers with a coordinator and executes the partitions it is
// dispatched until Shutdown, the context is cancelled, or the control
// link dies. A worker holds no graph, no mapping, and no global state:
// everything it executes arrives in partition specs, and everything it
// learned leaves in Done checkpoints.
type Worker struct {
	cfg  WorkerConfig
	link *transport.Link

	mu  sync.Mutex
	lns map[uint32]transport.Listener // pending data listeners by opening epoch
}

// NewWorker validates the config and returns an unstarted worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Transport == nil || cfg.Coord == "" || cfg.Kernels == nil {
		return nil, fmt.Errorf("orch: worker needs a transport, a coordinator address, and kernels")
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.DataAddr == nil {
		name := cfg.Name
		cfg.DataAddr = func(epoch uint32) string {
			return fmt.Sprintf("%s-data-e%d", name, epoch)
		}
	}
	return &Worker{cfg: cfg, lns: map[uint32]transport.Listener{}}, nil
}

// Run dials the coordinator, registers, and serves dispatched partitions
// until Shutdown (returns nil), context cancellation (returns the context
// error), or control-link failure.
func (w *Worker) Run(ctx context.Context) error {
	events := make(chan workerEvent, 64)
	conn, err := transport.DialRetry(ctx, w.cfg.Transport, w.cfg.Coord, w.cfg.Retry)
	if err != nil {
		return fmt.Errorf("orch: worker %s dial coordinator: %w", w.cfg.Name, err)
	}
	link, err := transport.NewLink(conn, transport.LinkConfig{
		Node:      0,
		Heartbeat: w.cfg.Heartbeat, PeerTimeout: w.cfg.PeerTimeout,
	}, &workerHandler{events: events})
	if err != nil {
		return fmt.Errorf("orch: worker %s handshake: %w", w.cfg.Name, err)
	}
	w.link = link
	defer w.closeListeners()
	defer link.Close()
	if err := w.send(Register{Name: w.cfg.Name}); err != nil {
		return err
	}

	var dep *deployment
	for {
		select {
		case <-ctx.Done():
			w.teardown(dep)
			return ctx.Err()
		case ev := <-events:
			switch {
			case ev.closed:
				w.teardown(dep)
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("orch: worker %s lost coordinator: %v", w.cfg.Name, ev.err)
			case ev.err != nil:
				w.teardown(dep)
				return fmt.Errorf("orch: worker %s control decode: %w", w.cfg.Name, ev.err)
			}
			switch m := ev.msg.(type) {
			case Welcome:
				// Identity is informational for now; specs carry slots.
			case Prepare:
				// A new deployment is coming: the standing one is over.
				w.teardown(dep)
				dep = nil
				if err := w.prepare(m.Epoch); err != nil {
					w.send(Fail{Epoch: m.Epoch, Msg: err.Error()})
				}
			case Task:
				w.teardown(dep)
				dep = w.deploy(ctx, m)
			case Continue:
				if !dep.offer(m) {
					w.send(Fail{Epoch: m.Epoch, Msg: "no standing deployment"})
				}
			case Abort:
				w.teardown(dep)
				dep = nil
				w.dropListener(m.Epoch)
				w.send(AbortOK{Epoch: m.Epoch})
			case Shutdown:
				// Every epoch has committed: what is still in flight on the
				// data links is delay tokens nobody will consume, so there
				// is nothing to drain.
				w.teardown(dep)
				return nil
			}
		}
	}
}

// prepare binds the fresh data-plane listener for a deployment and
// announces its address. A fresh listener per deployment fences
// connections from aborted ones out of the new one: stale peers hold
// addresses nobody listens on anymore.
func (w *Worker) prepare(epoch uint32) error {
	ln, err := w.cfg.Transport.Listen(w.cfg.DataAddr(epoch))
	if err != nil {
		return fmt.Errorf("bind data listener: %w", err)
	}
	w.mu.Lock()
	w.lns[epoch] = ln
	w.mu.Unlock()
	return w.send(Ready{Epoch: epoch, Addr: ln.Addr()})
}

func (w *Worker) takeListener(epoch uint32) transport.Listener {
	w.mu.Lock()
	defer w.mu.Unlock()
	ln := w.lns[epoch]
	delete(w.lns, epoch)
	return ln
}

func (w *Worker) dropListener(epoch uint32) {
	if ln := w.takeListener(epoch); ln != nil {
		ln.Close()
	}
}

func (w *Worker) closeListeners() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, ln := range w.lns {
		ln.Close()
	}
	w.lns = map[uint32]transport.Listener{}
}

// deploy opens the deployment a Task describes and runs its first epoch,
// then serves warm epochs on it until one fails, the coordinator replaces
// or aborts it, or the worker shuts down. The deployment owns its
// listener.
func (w *Worker) deploy(ctx context.Context, t Task) *deployment {
	dctx, cancel := context.WithCancel(ctx)
	d := &deployment{cancel: cancel, cmds: make(chan Continue, 1), done: make(chan struct{})}
	ln := w.takeListener(t.Epoch)
	fail := func(epoch uint32, msg string) {
		d.failed.Store(true)
		w.send(Fail{Epoch: epoch, Msg: msg})
	}
	go func() {
		defer close(d.done)
		defer cancel()
		if ln == nil {
			fail(t.Epoch, "task for an unprepared epoch")
			return
		}
		defer ln.Close()
		ks, err := w.cfg.Kernels(t.Spec)
		if err != nil {
			fail(t.Epoch, err.Error())
			return
		}
		pr, err := spi.OpenPartition(t.Spec, ks.Kernels, spi.DistOptions{
			Transport: w.cfg.Transport, Listener: ln,
			Retry: w.cfg.Retry, Context: dctx,
			Reconnect: w.cfg.Reconnect,
			Heartbeat: w.cfg.Heartbeat, PeerTimeout: w.cfg.PeerTimeout,
			SendTimeout: w.cfg.SendTimeout,
			State:       ks.Hooks, Obs: w.cfg.Obs,
		})
		if err != nil {
			if dctx.Err() == nil {
				fail(t.Epoch, err.Error())
			}
			return
		}
		defer pr.Close(false)
		next := Continue{Epoch: t.Epoch, BaseIter: t.Spec.BaseIter, Iterations: t.Spec.Iterations}
		for {
			res, err := pr.Run(next.BaseIter, next.Iterations)
			if err != nil {
				if dctx.Err() == nil {
					fail(next.Epoch, err.Error())
				}
				return
			}
			done := Done{
				Epoch: next.Epoch, Tails: res.Tails, State: res.State,
				Firings: map[string]uint32{}, ProcNS: res.ProcNS,
			}
			if ks.Collect != nil {
				done.Digests = ks.Collect()
			}
			for name, n := range res.Firings {
				done.Firings[name] = uint32(n)
			}
			w.send(done)
			end := next.BaseIter + next.Iterations
			select {
			case next = <-d.cmds:
			case <-dctx.Done():
				return
			}
			if next.BaseIter != end {
				fail(next.Epoch, fmt.Sprintf("standing deployment is at iteration %d, continue names %d", end, next.BaseIter))
				return
			}
		}
	}()
	return d
}

// offer hands a warm epoch to the deployment; false means there is no
// deployment able to take it.
func (d *deployment) offer(c Continue) bool {
	if d == nil || d.failed.Load() {
		return false
	}
	select {
	case d.cmds <- c:
		return true
	default:
		return false
	}
}

// teardown aborts a deployment, wherever its actors are blocked, and
// waits until it has gone.
func (w *Worker) teardown(d *deployment) {
	if d == nil {
		return
	}
	d.cancel()
	<-d.done
}

func (w *Worker) send(msg any) error {
	op, payload := Encode(msg)
	return w.link.SendCtrl(op, payload)
}
