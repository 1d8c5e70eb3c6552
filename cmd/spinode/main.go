// Command spinode runs one node of a distributed SPI execution: it loads a
// dataflow graph, takes the actor-to-processor assignment and the
// processor-to-node partition, connects to its peer nodes over TCP, and
// executes its share of the actors self-timed with deterministic demo
// kernels. Launching one spinode per node with identical arguments (except
// -node) runs the whole graph across OS processes; the per-sink digests it
// prints are bit-identical to a single-node run of the same graph.
//
// Two-process example (two terminals):
//
//	spinode -graph pipeline.sdf -assign 0,1,1 -nodeof 0,1 \
//	        -addrs 127.0.0.1:7101,127.0.0.1:7102 -node 0 -iters 20
//	spinode -graph pipeline.sdf -assign 0,1,1 -nodeof 0,1 \
//	        -addrs 127.0.0.1:7101,127.0.0.1:7102 -node 1 -iters 20
//
// The node that dials retries with backoff, so start order does not matter.
//
// Robustness flags: -reconnect/-reconnect-deadline enable transparent link
// resumption, -degrade turns a dead peer into a partial run (exit status 3,
// partial digests, per-peer failure summary) instead of an abort, -chaos
// injects deterministic transport faults for testing, and -connect-timeout
// bounds connection establishment.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/cmd/internal/runcfg"
	"repro/internal/obs"
	"repro/internal/orch"
	"repro/internal/session"
	"repro/internal/spi"
	"repro/internal/transport"
)

// Exit statuses: 1 generic failure, 2 flag misuse, 3 degraded run (a peer
// died; the digests printed cover only the work that completed).
const exitDegraded = 3

// nodeConfig is everything the run functions need: the shared run
// description plus what only spinode has. main fills it from flags, tests
// construct it directly (transport, listener and observer go in Opts).
type nodeConfig struct {
	runcfg.Run
	// ConnectTimeout bounds connection establishment (0 = retry ladder
	// only); -deadline supersedes it.
	ConnectTimeout time.Duration
	// HTTPAddr, when set, serves GET /metrics (Prometheus text), /healthz
	// (JSON status) and /trace (Chrome trace_event JSON) during the run;
	// StatsInterval, when positive, prints a periodic traffic summary.
	HTTPAddr      string
	StatsInterval time.Duration
	// Server holds the -serve admission policy and session timeout as
	// flagged; runServe fills in the system.
	Server session.ServerConfig
}

// cli is spinode's whole flag surface: the node configuration plus the
// mode switches and what only one mode reads.
type cli struct {
	nodeConfig
	addrs                 string
	inproc, serve, worker bool
	Worker                orch.WorkerConfig // -coord, -name
	dataHost              string
}

func newFlagSet(c *cli) *flag.FlagSet {
	fs := flag.NewFlagSet("spinode", flag.ExitOnError)
	c.GraphFlags(fs)
	c.NodeOfFlag(fs)
	c.SeedFlag(fs)
	c.FissionFlags(fs)
	c.LivenessFlags(fs)
	c.WireFlags(fs)
	c.ChaosFlag(fs)
	runcfg.ReconnectFlags(fs, &c.Opts.Reconnect)
	runcfg.AdmissionFlags(fs, &c.Server.Admission)
	fs.StringVar(&c.addrs, "addrs", "", "comma-separated listen address per node")
	fs.IntVar(&c.Opts.Node, "node", 0, "this process's node index")
	fs.DurationVar(&c.ConnectTimeout, "connect-timeout", 0,
		"bound on connection establishment (0 = retry ladder only; superseded by -deadline)")
	fs.BoolVar(&c.Opts.Degrade, "degrade", false,
		"on a dead peer, drain the surviving actors and report partial digests (exit status 3) instead of aborting")
	fs.StringVar(&c.Transport, "transport", c.Transport,
		"byte transport: tcp, shm (same-host shared-memory rings; -addrs are segment names under -shm-dir), or loopback (in-memory, only useful with -inproc)")
	fs.StringVar(&c.ShmDir, "shm-dir", c.ShmDir,
		"with -transport shm: directory holding the shared-memory rendezvous segments; all nodes must use the same one")
	fs.BoolVar(&c.inproc, "inproc", false,
		"run every node of the graph inside this one process over the selected transport and print all digests — the single-command digest-verify mode (-addrs and -node are synthesized)")
	fs.StringVar(&c.HTTPAddr, "http", "",
		"serve live introspection (GET /metrics, /healthz, /trace) on this address, e.g. 127.0.0.1:9090")
	fs.DurationVar(&c.StatsInterval, "stats-interval", 0,
		"print a periodic traffic summary line at this interval (0 = off)")
	fs.BoolVar(&c.serve, "serve", false,
		"multi-tenant session server: accept client links and run one session-scoped execution per admitted OPEN (see internal/session)")
	fs.Int64Var(&c.Server.Admission.MaxTenantBytes, "tenant-bytes", 0,
		"with -serve: queued-byte budget per tenant before its oldest session is degraded (0 = unbounded)")
	fs.Func("tenant-weights", "with -serve: weighted shares of -max-sessions, e.g. alice=3,bob=1",
		func(s string) (err error) {
			c.Server.Admission.TenantWeights, err = parseWeights(s)
			return err
		})
	fs.DurationVar(&c.Server.SessionTimeout, "session-timeout", 0,
		"with -serve: shed a session whose client has been silent this long (0 = never reap)")
	fs.BoolVar(&c.worker, "worker", false,
		"orchestrated worker: register with a spictl coordinator and execute dispatched partitions instead of loading a full manifest (see internal/orch); honours -transport, -chaos, -seed, -heartbeat, -peer-timeout and -reconnect")
	fs.StringVar(&c.Worker.Coord, "coord", "", "with -worker: the coordinator's control-plane address")
	fs.StringVar(&c.Worker.Name, "name", "", "with -worker: this worker's registration name (default: host:pid)")
	fs.StringVar(&c.dataHost, "data-host", "127.0.0.1",
		"with -worker: host to bind per-epoch data-plane listeners on (ephemeral ports)")
	return fs
}

// prepare checks the mode switches against the flags they need and opens
// the transport every mode runs over: -transport and -chaos apply to
// -worker and -serve exactly as to a plain node. An error is flag misuse.
func (c *cli) prepare() (local func(int) string, err error) {
	switch {
	case c.worker && c.Worker.Coord == "":
		return nil, errors.New("-worker requires -coord")
	case c.worker:
		// A worker holds no graph and no assignment: partitions arrive
		// from the coordinator, so -graph/-assign/-addrs do not apply.
	case c.GraphPath == "":
		return nil, errors.New("-graph is required")
	case c.inproc:
	case c.addrs == "":
		return nil, errors.New("-addrs is required")
	case c.serve && c.Opts.Resync:
		// Session-tagged acks are never suppressed, so the flag would be
		// accepted and do nothing.
		return nil, errors.New("-resync does not apply with -serve: session-tagged acks are never suppressed")
	}
	tr, local, _, err := c.OpenTransport()
	if err != nil {
		return nil, err
	}
	if c.Chaos != nil {
		tr = transport.NewFaultTransport(tr, *c.Chaos)
	}
	c.Opts.Transport = tr
	if c.addrs != "" {
		c.Opts.Addrs = strings.Split(c.addrs, ",")
	}
	return local, nil
}

func main() {
	c := cli{nodeConfig: nodeConfig{Run: runcfg.Run{Iters: 10, Seed: 1, Transport: "tcp", ShmDir: os.TempDir()}}}
	newFlagSet(&c).Parse(os.Args[1:])
	local, err := c.prepare()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spinode:", err)
		os.Exit(2)
	}
	cfg := c.nodeConfig
	ctx := context.Background()
	if c.worker || c.serve { // the long-lived modes stop on SIGINT
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt)
		defer stop()
	}
	switch {
	case c.worker:
		wc := c.Worker
		wc.Transport, wc.Reconnect = cfg.Opts.Transport, cfg.Opts.Reconnect
		wc.Heartbeat, wc.PeerTimeout = cfg.Opts.Heartbeat, cfg.Opts.PeerTimeout
		err = runWorker(ctx, wc, c.dataHost, cfg.Seed, os.Stdout)
	case c.inproc:
		err = runInproc(cfg, local, os.Stdout)
	case c.serve:
		err = runServe(cfg, os.Stdout, ctx.Done())
	default:
		err = runNode(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spinode:", err)
		var de *spi.DegradedError
		if errors.As(err, &de) {
			os.Exit(exitDegraded)
		}
		os.Exit(1)
	}
}

// runInproc executes every node of the run inside this process over the
// selected transport — the digest-verify mode the fission smoke test uses.
// local names each node's listen address. Each node's report is buffered
// and printed in node order so digest lines stay greppable.
func runInproc(cfg nodeConfig, local func(int) string, w io.Writer) error {
	sys, err := cfg.Build()
	if err != nil {
		return err
	}
	nodes := sys.Nodes()
	cfg.Opts.Addrs = make([]string, nodes)
	lns := make([]transport.Listener, nodes)
	for i := range lns {
		if lns[i], err = cfg.Opts.Transport.Listen(local(i)); err != nil {
			return err
		}
		defer lns[i].Close()
		cfg.Opts.Addrs[i] = lns[i].Addr()
	}
	outs := make([]strings.Builder, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ncfg := cfg
			ncfg.Opts.Node, ncfg.Opts.Listener = i, lns[i]
			errs[i] = runNode(ncfg, &outs[i])
		}(i)
	}
	wg.Wait()
	for i := range outs {
		io.WriteString(w, outs[i].String())
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

// serveHTTP starts the -http introspection endpoint and returns its
// shutdown.
func serveHTTP(addr string, o *obs.Observer, status func() any, w io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-http: %w", err)
	}
	srv := &http.Server{Handler: o.Handler(status)}
	go srv.Serve(ln)
	fmt.Fprintf(w, "observability: http://%s/metrics /healthz /trace\n", ln.Addr())
	return func() { srv.Close() }, nil
}

// runNode executes one node of the distributed run and reports the sink
// digests and communication statistics on w.
func runNode(cfg nodeConfig, w io.Writer) error {
	sys, err := cfg.Build()
	if err != nil {
		return err
	}
	kernels, digests, err := sys.Kernels()
	if err != nil {
		return err
	}
	g, m, opts := sys.Graph, sys.Mapping, cfg.Opts
	opts.NodeOf = sys.NodeOf

	fmt.Fprintf(w, "spinode: graph %s, node %d/%d, %d iterations\n",
		g.Name(), opts.Node, len(opts.Addrs), cfg.Iters)
	if sys.Plan != nil {
		fmt.Fprintf(w, "%s\n", sys.Plan)
	}
	var sinkNames []string
	for p := 0; p < m.NumProcs; p++ {
		if opts.NodeOf[p] != opts.Node {
			continue
		}
		names := make([]string, len(m.Order[p]))
		for i, a := range m.Order[p] {
			names[i] = g.Actor(a).Name
			if len(g.Out(a)) == 0 {
				sinkNames = append(sinkNames, names[i])
			}
		}
		fmt.Fprintf(w, "  processor %d: %s\n", p, strings.Join(names, " "))
	}

	// Observability: tests inject a seeded observer via Opts.Obs; the
	// -http / -stats-interval flags demand a wall-clock one.
	o := opts.Obs
	if o == nil && (cfg.HTTPAddr != "" || cfg.StatsInterval > 0) {
		o = obs.New()
		o.Node = opts.Node
		opts.Obs = o
	}
	if ft, ok := opts.Transport.(*transport.FaultTransport); ok {
		ft.SetObserver(o)
	}
	var phase atomic.Value
	phase.Store("connecting")
	if cfg.HTTPAddr != "" {
		closeHTTP, err := serveHTTP(cfg.HTTPAddr, o, func() any {
			return map[string]any{
				"status":     phase.Load(),
				"node":       opts.Node,
				"graph":      g.Name(),
				"iterations": cfg.Iters,
			}
		}, w)
		if err != nil {
			return err
		}
		defer closeHTTP()
	}
	stopStats := func() {}
	if cfg.StatsInterval > 0 {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(cfg.StatsInterval)
			defer tick.Stop()
			start := time.Now()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					r := o.Metrics
					sent, writes := r.Sum("transport_link_frames_sent_total"), r.Sum("transport_link_writes_total")
					fmt.Fprintf(w, "stats[%s]: msgs=%d data_bytes=%d acks=%d credit_waits=%d frames_sent=%d frames_per_write=%.1f frames_recv=%d resumes=%d faults=%d\n",
						time.Since(start).Round(time.Second),
						r.Sum("spi_edge_messages_total"), r.Sum("spi_edge_data_bytes_total"),
						r.Sum("spi_edge_acks_total"), r.Sum("spi_edge_credit_waits_total"),
						sent, float64(sent)/float64(max(writes, 1)), r.Sum("transport_link_frames_received_total"),
						r.Sum("transport_link_resumes_total"), r.Sum("chaos_faults_total"))
				}
			}
		}()
		var once sync.Once
		stopStats = func() { once.Do(func() { close(stop); <-done }) }
		defer stopStats()
	}

	// DistOptions.Context bounds the whole run: -deadline is that budget
	// directly; -connect-timeout keeps its historical role (setup bound)
	// and also stops a run still stuck past it.
	if budget := cmp.Or(cfg.Deadline, cfg.ConnectTimeout); budget > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		opts.Context = ctx
	}
	phase.Store("running")
	st, err := spi.ExecuteDistributed(g, m, kernels, cfg.Iters, opts)
	stopStats() // the run is over; no ticker write may interleave with the summary
	phase.Store("done")
	var de *spi.DegradedError
	if err != nil && !errors.As(err, &de) {
		return err
	}
	if de != nil {
		phase.Store("degraded")
	}

	sort.Strings(sinkNames)
	label := "digest"
	if de != nil {
		// A peer died; the run drained what it could. The digests cover
		// only the completed iterations, so mark them as partial.
		label = "partial-digest"
	}
	for _, name := range sinkNames {
		fmt.Fprintf(w, "%s %s %016x\n", label, name, *digests[name])
	}
	if st != nil {
		fmt.Fprintf(w, "stats: %d messages, %d wire bytes, %d acks, %d local transfers\n",
			st.SPI.Messages, st.SPI.WireBytes, st.SPI.Acks, st.LocalTransfers)
		for _, e := range st.Edges {
			fmt.Fprintf(w, "  edge %s (%s): %d messages, %d data bytes, %d acks, %d ack bytes, %d suppressed\n",
				e.Name, e.Protocol, e.Stats.Messages, e.Stats.WireBytes, e.Stats.Acks, e.Stats.AckBytes, e.Stats.AcksSuppressed)
		}
	}
	if de != nil {
		fmt.Fprintf(w, "degraded: node %d finished without %d peer(s)\n", de.Node, len(de.Peers))
		peers := make([]int, 0, len(de.Peers))
		for p := range de.Peers {
			peers = append(peers, p)
		}
		sort.Ints(peers)
		for _, p := range peers {
			fmt.Fprintf(w, "  peer node %d at %s lost: %v\n", p, opts.Addrs[p], de.Peers[p])
		}
		if len(de.Starved) > 0 {
			fmt.Fprintf(w, "  starved actors: %s\n", strings.Join(de.Starved, " "))
			// How far each starved actor got before its edges died.
			for _, name := range de.Starved {
				fmt.Fprintf(w, "    %s completed %d/%d firings\n", name, de.Firings[name], cfg.Iters)
			}
		}
		return err
	}
	return nil
}
