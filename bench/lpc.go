package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dsp"
	"repro/internal/lpc"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/signal"
	"repro/internal/spi"
	"repro/internal/transport"
)

// LPC error generation (application 1, actor D): lpc.DistributedResidual
// over N-sample frames on 4 PEs, the call spirun -app speech makes. The
// three workloads differ only in the carrier: one node (no transport at
// all), or the I/O interface on node 0 and the PEs on node 1 over TCP or
// the same-host shared-memory rings with the README's tuned flags.
const (
	lpcFrameSize = 2048 // samples; 16 KiB per frame as float64
	lpcOrder     = 10
	lpcPEs       = 4
	lpcInputs    = 8 // distinct frames cycled through the rounds
	lpcBlock     = 16
)

// crossingEvents holds the events of a one-block call (44 at this writing)
// many times over.
const crossingEvents = 1024

var lpcBatch = transport.BatchConfig{MaxFrames: 32, MaxBytes: 64 << 10, MaxDelay: 100 * time.Microsecond}

type lpcInput struct {
	model *dsp.LPCModel
	frame []float64
	want  []float64 // model.Residual(frame), the serial reference
}

type lpcWorkload struct {
	carrier string // "chan", "tcp" or "shm"
	frames  int    // per round, at scale 1

	inputs []lpcInput
	next   int
	tr     transport.Transport
	shmDir string
}

func (w *lpcWorkload) networked() bool { return w.carrier != "chan" }

// block is the number of frames a cold call needs for one message per
// edge: the blocking factor on the streams, one frame on the scalar run.
func (w *lpcWorkload) block() int {
	if w.networked() {
		return lpcBlock
	}
	return 1
}

func (w *lpcWorkload) init(e *env) error {
	x := signal.Speech(lpcFrameSize*lpcInputs, e.seed)
	for i := 0; i < lpcInputs; i++ {
		frame := x[i*lpcFrameSize : (i+1)*lpcFrameSize]
		model, err := dsp.LPCAnalyze(frame, lpcOrder)
		if err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		w.inputs = append(w.inputs, lpcInput{model: model, frame: frame, want: model.Residual(frame)})
	}
	switch w.carrier {
	case "tcp":
		w.tr = &transport.TCP{}
	case "shm":
		w.shmDir = filepath.Join(e.outDir, fmt.Sprintf("shm-%d", os.Getpid()))
		w.tr = &transport.SameHost{Shm: transport.NewShm(w.shmDir)}
	}
	return nil
}

func (w *lpcWorkload) close() {
	if w.shmDir != "" {
		os.RemoveAll(w.shmDir)
	}
}

// opts is the per-node configuration: the README's tuned streaming flags
// on the networked carriers, plain scalar execution on one node, and the
// hang guards everywhere.
func (w *lpcWorkload) opts(ctx context.Context, observer *obs.Observer) spi.DistOptions {
	o := spi.DistOptions{Context: ctx, StallTimeout: stallTimeout, Obs: observer}
	if w.networked() {
		o.Transport = w.tr
		o.Block = lpcBlock
		o.Batch = lpcBatch
		o.PiggybackAcks = true
		o.Resync = true
	}
	return o
}

// call runs one cold deployment for iters frames of in and verifies the
// assembled residual bit for bit against the serial reference. It returns
// the per-node statistics (one node on chan, two otherwise). Every node
// records into observer; nil runs with observability off.
func (w *lpcWorkload) call(in *lpcInput, iters int, observer *obs.Observer) ([]*spi.ExecStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), roundDeadline)
	defer cancel()
	var got []float64
	var stats []*spi.ExecStats
	if !w.networked() {
		o := w.opts(ctx, observer)
		o.Addrs = []string{"only"}
		res, st, err := lpc.DistributedResidual(in.model, in.frame, lpcPEs, iters, o)
		if err != nil {
			return nil, err
		}
		got, stats = res, []*spi.ExecStats{st}
	} else {
		ln, err := w.tr.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs := []string{ln.Addr(), "unused"}
		var (
			res  [2][]float64
			sts  [2]*spi.ExecStats
			errs [2]error
			wg   sync.WaitGroup
		)
		for node := 0; node < 2; node++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				o := w.opts(ctx, observer)
				o.Node, o.Addrs = node, addrs
				if node == 0 {
					o.Listener = ln
				}
				res[node], sts[node], errs[node] = lpc.DistributedResidual(in.model, in.frame, lpcPEs, iters, o)
			}(node)
		}
		wg.Wait()
		for node, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("node %d: %w", node, err)
			}
		}
		got, stats = res[0], sts[:]
	}
	if len(got) != len(in.want) {
		return nil, fmt.Errorf("residual has %d samples, want %d", len(got), len(in.want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(in.want[i]) {
			return nil, fmt.Errorf("residual[%d] = %g, serial reference %g", i, got[i], in.want[i])
		}
	}
	return stats, nil
}

func (w *lpcWorkload) input() *lpcInput {
	in := &w.inputs[w.next%len(w.inputs)]
	w.next++
	return in
}

func (w *lpcWorkload) round(e *env) (roundStats, error) {
	iters := e.units(w.frames)
	stats, err := w.call(w.input(), iters, e.obs)
	if err != nil {
		return failedRound(iters, err)
	}
	rs := roundStats{attempted: iters}
	rs.addExec(stats...)
	return rs, nil
}

// probe is a cold call for one frame, then the workload's unit-latency
// samples. lpc.DistributedResidual builds its kernels itself and leaves
// the benchmark nowhere to stamp frames, so a sample comes from the
// program's own kernel spans instead: see crossing.
func (w *lpcWorkload) probe(e *env) (roundStats, error) {
	t0 := time.Now()
	if _, err := w.call(w.input(), 1, e.obs); err != nil {
		return failedRound(1, fmt.Errorf("one-frame call: %w", err))
	}
	if setup := time.Since(t0); w.networked() {
		e.m.waitingSetup(setup)
	} else {
		e.m.setup(setup)
	}
	n := 1
	for i := 0; i < w.crossings(); i++ {
		d, err := w.crossing()
		n += w.block()
		if err != nil {
			return failedRound(n, fmt.Errorf("one-block call: %w", err))
		}
		e.m.unitLatency(d)
	}
	return roundStats{attempted: n}, nil
}

// crossings is how many latency samples follow a cold start. A call on one
// node is a tenth as long as one over a carrier and its crossing time
// spreads more (a chain of goroutine wake-ups and little else), so it is
// sampled more often.
func (w *lpcWorkload) crossings() int {
	if w.networked() {
		return 3
	}
	return 8
}

// crossing is the time one unit of delivery (a block of frames on the
// streams, a frame on one node) takes through an otherwise empty
// deployment: from the entry of the source kernel to the return of the
// sink kernel, read from the kernel spans the executor records into an
// observer of this call's own. The call's set-up and tear-down, which
// setup_s covers and which give the call's wall time two modes a
// millisecond apart, are outside the two stamps. The spans carry whole
// microseconds.
func (w *lpcWorkload) crossing() (time.Duration, error) {
	o := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(crossingEvents, nil)}
	if _, err := w.call(w.input(), w.block(), o); err != nil {
		return 0, err
	}
	var sent, received int64 = -1, -1
	for _, ev := range o.Trace.Events() {
		if ev.Cat != "kernel" {
			continue
		}
		switch ev.Name {
		case "io_send":
			sent = ev.TS
		case "io_recv":
			received = ev.TS + ev.Dur
		}
	}
	if sent < 0 || received < sent {
		return 0, fmt.Errorf("no io_send and io_recv kernel spans among the call's %d trace events", o.Trace.Len())
	}
	return time.Duration(received-sent) * time.Microsecond, nil
}

func (w *lpcWorkload) ladder(e *env, l *ladder) error {
	in := &w.inputs[0]
	var keep []float64
	ns, _, err := l.rung("dsp.LPCModel.Residual", 500, func(n int) error {
		for i := 0; i < n; i++ {
			keep = in.model.Residual(in.frame)
		}
		return nil
	})
	if err != nil {
		return err
	}
	_ = keep
	l.set("kernel.ns_per_unit", ns)

	p := lpc.DefaultDeploy(lpcFrameSize, lpcPEs)
	p.SampleBytes = 8
	var sys *spi.System
	if err := l.once("plan.build_us", func() (err error) { sys, err = lpc.ErrorGenSystem(p); return }); err != nil {
		return err
	}
	if err := l.plan(
		planStep{"plan.resync_us", func() error { _, err := spi.ResyncSuppression(sys.Graph, sys.Mapping); return err }},
		planStep{"plan.block_us", func() error { _, _, err := sched.PickBlock(sys.Graph, 0, 0); return err }},
		planStep{"plan.fission_us", func() error { _, err := lpc.FissionErrorGenSystem(p, 4, 0); return err }},
	); err != nil {
		return err
	}

	block := w.block()
	s, err := shapeOf(sys.Graph, sys.Mapping, lpc.SplitIOWorkers(sys.Mapping.NumProcs, 2), block, l.meanPayload)
	if err != nil {
		return err
	}
	l.block = s.block
	if err := l.spiRungs(s); err != nil {
		return err
	}
	if err := l.execRungs(sys.Graph, sys.Mapping, block); err != nil {
		return err
	}
	if !w.networked() {
		return nil
	}
	return l.transportRungs(carrier{w.tr, "127.0.0.1:0"}, s, linkTune{batch: lpcBatch, piggyback: true, resync: true})
}
