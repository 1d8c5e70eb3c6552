// Command spictl runs the elastic orchestration control plane: a
// coordinator that accepts worker registrations, partitions the graph,
// dispatches each worker only its share, and live-migrates actors across
// epoch boundaries when the pool changes or a worker dies (see
// internal/orch).
//
// Self-contained smoke (one process, 3 workers over an in-memory
// transport, one forced live migration, digests checked against the
// static single-node run):
//
//	spictl -inproc 3 -iters 24 -epoch 6 -migrate-at 2 -verify
//
// Distributed: run spictl with -listen and point spinode -worker
// instances at it:
//
//	spictl -listen 127.0.0.1:7200 -min-workers 3 -iters 240 -epoch 24
//	spinode -worker -coord 127.0.0.1:7200 -name w0 -data-host 127.0.0.1
//
// Fault injection (in-proc pool only): -kill w1@2 cancels worker w1 as
// epoch 2 dispatches; -choke w1@2 silences its transport instead, so only
// heartbeat liveness can declare it dead. Exit status 1 on any failure,
// including a -verify digest mismatch.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/cmd/internal/runcfg"
	"repro/internal/dataflow"
	"repro/internal/demo"
	"repro/internal/orch"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/transport"
)

// builtinGraph is the default workload: a 4-actor signal chain whose
// edges cover every class the partition codec handles — cross-processor
// static with delay, dynamic with delay, undelayed static, and a
// same-processor delayed edge. Assign 0,1,2,0.
const builtinGraph = `graph orchdemo
actor src 100
actor fir 220
actor dec 180
actor snk 60
edge sf src fir 1 1 bytes=8 delay=2
edge fd fir dec 1 1 bytes=16 delay=1 dynamic
edge ds dec snk 1 1 bytes=4
edge ss src snk 1 1 bytes=6 delay=1
`

// ctlConfig is everything runCtl needs; main fills it from flags, tests
// construct it directly. Run describes the system (graph, assignment,
// iterations, seed, fission), the link liveness and resync settings (in
// Opts, with Opts.Obs instrumenting the coordinator's links) and the
// deadline; Coord carries -listen, -epoch, -min-workers and -epoch-timeout
// as the library takes them, and runCtl fills in the rest.
type ctlConfig struct {
	runcfg.Run
	Coord     orch.CoordConfig
	InProc    int
	MigrateAt int
	Kill      *fault
	Choke     *fault
	Verify    bool
}

func newFlagSet(c *ctlConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("spictl", flag.ExitOnError)
	c.GraphFlags(fs) // no -graph: a built-in 4-actor chain, assigned 0,1,2,0
	c.SeedFlag(fs)
	c.FissionFlags(fs) // the replicas place and migrate like ordinary actors
	c.LivenessFlags(fs)
	fs.IntVar(&c.Coord.EpochIters, "epoch", 6, "iterations per epoch (the migration/commit granularity)")
	fs.StringVar(&c.Coord.Addr, "listen", "", "TCP control-plane address to accept spinode -worker registrations on")
	fs.IntVar(&c.InProc, "inproc", 0, "spawn this many in-process workers over an in-memory transport instead of listening on TCP")
	fs.IntVar(&c.Coord.MinWorkers, "min-workers", 0, "wait for this many workers before the first epoch (default: all of -inproc, else 1)")
	fs.IntVar(&c.MigrateAt, "migrate-at", -1, "force a live migration by rotating the placement at this epoch (-1 = never)")
	fs.Func("kill", "in-proc fault: cancel worker NAME as epoch E dispatches, e.g. w1@2", func(s string) (err error) {
		c.Kill, err = parseFault(s)
		return err
	})
	fs.Func("choke", "in-proc fault: silence worker NAME's transport at epoch E (heartbeat-only death), e.g. w1@2", func(s string) (err error) {
		c.Choke, err = parseFault(s)
		return err
	})
	fs.BoolVar(&c.Verify, "verify", false, "run the static single-node reference in-process and require bit-identical sink digests")
	fs.DurationVar(&c.Coord.EpochTimeout, "epoch-timeout", 30*time.Second, "reap workers that stall an epoch past this bound")
	return fs
}

func main() {
	cfg := ctlConfig{Run: runcfg.Run{
		Iters: 24, Seed: 1, Deadline: 5 * time.Minute,
		Opts: spi.DistOptions{Heartbeat: 25 * time.Millisecond},
	}}
	newFlagSet(&cfg).Parse(os.Args[1:])
	misuse := func(msg string) {
		fmt.Fprintln(os.Stderr, "spictl:", msg)
		os.Exit(2)
	}
	switch {
	case cfg.GraphPath == "":
		cfg.Graph, _ = dataflow.Parse(strings.NewReader(builtinGraph)) // a constant the tests parse
		if cfg.Assign == nil {
			cfg.Assign = []int{0, 1, 2, 0}
		}
	case cfg.Assign == nil:
		misuse("-assign is required with -graph")
	}
	if (cfg.Coord.Addr == "") == (cfg.InProc == 0) {
		misuse("exactly one of -listen or -inproc is required")
	}
	if err := runCtl(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spictl:", err)
		os.Exit(1)
	}
}

// fault names a worker and the epoch at whose dispatch it fires.
type fault struct {
	Worker string
	Epoch  int
}

func parseFault(s string) (*fault, error) {
	if s == "" {
		return nil, nil
	}
	name, at, ok := strings.Cut(s, "@")
	if !ok || name == "" {
		return nil, fmt.Errorf("want NAME@EPOCH, got %q", s)
	}
	e, err := strconv.Atoi(at)
	if err != nil || e < 0 {
		return nil, fmt.Errorf("bad epoch in %q", s)
	}
	return &fault{Worker: name, Epoch: e}, nil
}

// staticReference runs the unpartitioned single-process execution and
// returns its per-sink digests — the bit-identity bar the orchestrated
// run must clear.
func staticReference(g *dataflow.Graph, m *sched.Mapping, seed uint64, iters int) (map[string]uint64, error) {
	digests := demo.Sinks(g)
	var mu sync.Mutex
	kernels, err := demo.Kernels(g, seed, digests, &mu)
	if err != nil {
		return nil, err
	}
	if _, err := spi.Execute(g, m, kernels, iters); err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for name, d := range digests {
		out[name] = *d
	}
	return out, nil
}

// runCtl drives one orchestrated run end to end and reports digests and
// elasticity counters on w.
func runCtl(cfg ctlConfig, w io.Writer) error {
	// -fission rewrites the graph before orchestration: the replicas are
	// ordinary actors from the coordinator's point of view, so they place,
	// checkpoint, and live-migrate exactly like the rest of the graph.
	sys, err := cfg.Build()
	if err != nil {
		return err
	}
	if sys.Plan != nil {
		fmt.Fprintf(w, "%s\n", sys.Plan)
	}
	cfg.Transport = "tcp"
	if cfg.InProc > 0 {
		cfg.Transport = "loopback"
	}
	tr, local, err := cfg.OpenTransport()
	if err != nil {
		return err
	}
	ccfg, o := cfg.Coord, &cfg.Opts
	ccfg.Transport, ccfg.Graph, ccfg.Mapping, ccfg.Iterations = tr, sys.Graph, sys.Mapping, cfg.Iters
	ccfg.Heartbeat, ccfg.PeerTimeout, ccfg.Resync, ccfg.Obs = o.Heartbeat, o.PeerTimeout, o.Resync, o.Obs
	if cfg.InProc > 0 {
		ccfg.Addr = local(0)
	}
	if ccfg.MinWorkers == 0 {
		ccfg.MinWorkers = max(cfg.InProc, 1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
	defer cancel()

	// In-proc pool: each worker gets its own context (so -kill can take
	// one down) and optionally a choke-wrapped transport.
	workerErrs := map[string]chan error{}
	stops := map[string]context.CancelFunc{}
	var choker *silencer
	if cfg.InProc > 0 {
		for i := 0; i < cfg.InProc; i++ {
			name := fmt.Sprintf("w%d", i)
			wtr := tr
			if cfg.Choke != nil && cfg.Choke.Worker == name {
				choker = &silencer{Transport: tr}
				wtr = choker
			}
			wk, err := orch.NewWorker(orch.WorkerConfig{
				Transport: wtr, Coord: ccfg.Addr, Name: name,
				Kernels: func(spec *spi.PartitionSpec) (*orch.KernelSet, error) {
					kernels, sinks := demo.PartKernels(spec, cfg.Seed)
					return &orch.KernelSet{Kernels: kernels, Collect: sinks.Take}, nil
				},
				Retry:     transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
				Heartbeat: o.Heartbeat, PeerTimeout: o.PeerTimeout,
				Obs: o.Obs,
			})
			if err != nil {
				return err
			}
			wctx, wcancel := context.WithCancel(ctx)
			defer wcancel()
			stops[name] = wcancel
			ch := make(chan error, 1)
			workerErrs[name] = ch
			go func() { ch <- wk.Run(wctx) }()
		}
	}

	if cfg.MigrateAt >= 0 {
		at := cfg.MigrateAt
		ccfg.OnPlace = func(epoch int, placement []int, ids []uint32) []int {
			if epoch != at || len(ids) < 2 {
				return placement
			}
			rotated := make([]int, len(placement))
			for p, slot := range placement {
				rotated[p] = (slot + 1) % len(ids)
			}
			return rotated
		}
	}
	if cfg.Kill != nil || cfg.Choke != nil {
		var killOnce, chokeOnce sync.Once
		ccfg.OnDispatch = func(epoch int) {
			if cfg.Kill != nil && epoch == cfg.Kill.Epoch {
				if stop := stops[cfg.Kill.Worker]; stop != nil {
					killOnce.Do(stop)
				}
			}
			if cfg.Choke != nil && epoch == cfg.Choke.Epoch && choker != nil {
				chokeOnce.Do(choker.Silence)
			}
		}
	}
	coord, err := orch.NewCoordinator(ccfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "spictl: graph %s, %d iterations in epochs of %d, min %d workers\n",
		sys.Graph.Name(), cfg.Iters, ccfg.EpochIters, ccfg.MinWorkers)
	start := time.Now()
	rep, err := coord.Run(ctx)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	names := make([]string, 0, len(rep.Digests))
	for name := range rep.Digests {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "digest %s %016x\n", name, rep.Digests[name])
	}
	fmt.Fprintf(w, "orch: epochs=%d commits=%d aborts=%d migrations=%d deploys=%d warm=%d block=%d stalled_tokens=%d workers_seen=%d workers_lost=%d recovery=%s elapsed=%s\n",
		rep.Epochs, rep.Commits, rep.Aborts, rep.Migrations, rep.Deploys, rep.WarmEpochs, rep.Block, rep.StalledTokens,
		rep.WorkersSeen, rep.WorkersLost, time.Duration(rep.RecoveryNS), elapsed.Round(time.Millisecond))

	// A killed or choked in-proc worker exits with an error by design;
	// every other worker must come home clean.
	for name, ch := range workerErrs {
		faulted := (cfg.Kill != nil && cfg.Kill.Worker == name) ||
			(cfg.Choke != nil && cfg.Choke.Worker == name)
		if faulted {
			continue
		}
		select {
		case werr := <-ch:
			if werr != nil {
				return fmt.Errorf("worker %s: %w", name, werr)
			}
		case <-time.After(10 * time.Second):
			return fmt.Errorf("worker %s did not shut down", name)
		}
	}

	if cfg.Verify {
		want, err := staticReference(sys.Graph, sys.Mapping, cfg.Seed, cfg.Iters)
		if err != nil {
			return fmt.Errorf("static reference: %w", err)
		}
		if len(want) != len(rep.Digests) {
			return fmt.Errorf("verify: orchestrated run has %d sink digests, static has %d", len(rep.Digests), len(want))
		}
		for name, d := range want {
			if rep.Digests[name] != d {
				return fmt.Errorf("verify: sink %s digest %016x != static %016x", name, rep.Digests[name], d)
			}
		}
		fmt.Fprintf(w, "verify: %d sink digest(s) bit-identical to the static run\n", len(want))
	}
	return nil
}

// silencer wraps a transport so every connection this side makes or
// accepts can be silenced at once: writes keep "succeeding" but the peer
// hears nothing, the failure mode only heartbeat liveness catches.
type silencer struct {
	transport.Transport
	mu     sync.Mutex
	silent bool
}

func (s *silencer) Silence() {
	s.mu.Lock()
	s.silent = true
	s.mu.Unlock()
}

type silentConn struct {
	transport.Conn
	s *silencer
}

func (c *silentConn) Write(p []byte) (int, error) {
	c.s.mu.Lock()
	silent := c.s.silent
	c.s.mu.Unlock()
	if silent {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func (s *silencer) Dial(addr string) (transport.Conn, error) {
	c, err := s.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &silentConn{Conn: c, s: s}, nil
}

func (s *silencer) Listen(addr string) (transport.Listener, error) {
	ln, err := s.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &silentListener{Listener: ln, s: s}, nil
}

type silentListener struct {
	transport.Listener
	s *silencer
}

func (l *silentListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &silentConn{Conn: c, s: l.s}, nil
}
