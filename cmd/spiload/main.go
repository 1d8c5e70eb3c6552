// Command spiload is a load generator for spinode -serve: it opens many
// concurrent graph sessions against a session server over one shared
// link, drives each session's client partition to completion, and
// reports admission outcomes and session latency percentiles.
//
// Closed-loop mode (-concurrency W) keeps W sessions in flight until
// -sessions have run; open-loop mode (-rate R) starts R sessions per
// second regardless of completions. Every session verifies its sink
// digest against a locally computed reference, so a load run is also a
// correctness run.
//
// Self-contained smoke (in-process server, loopback or localhost TCP):
//
//	spiload -inproc -sessions 100 -concurrency 16 -iters 10
//	spiload -inproc-tcp -sessions 100 -concurrency 16 -iters 10
//
// Against a live server:
//
//	spinode -serve -graph g.sdf -assign 0,1,1 -nodeof 0,1 \
//	        -addrs 127.0.0.1:7101,unused -node 0 -max-sessions 64 -tenant-quota 16
//	spiload -graph g.sdf -assign 0,1,1 -nodeof 0,1 -node 1 \
//	        -connect 127.0.0.1:7101 -sessions 200 -tenants 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/cmd/internal/runcfg"
	"repro/internal/dataflow"
	"repro/internal/session"
	"repro/internal/spi"
	"repro/internal/transport"
)

// builtinGraph is the default workload when no -graph is given: the same
// three-stage pipeline shape the repo's examples use, with the source on
// the server (node 0) and the sink on the client so spiload can verify
// digests locally. Assign 0,1,1 with nodeof 0,1.
const builtinGraph = `graph loadgen
actor src 100
actor mid 150
actor sink 50
edge sm src mid 4 4 bytes=2 delay=4
edge ms mid sink 4 4 bytes=2 dynamic
`

// loadConfig is everything a load run needs; main fills it from flags,
// tests construct it directly. Run describes the system both sides execute
// (graph, assignment, nodes, iterations, seed); Link is the client link as
// the library takes it (-node, -reconnect).
type loadConfig struct {
	runcfg.Run
	Link        transport.LinkConfig
	Connect     string
	Sessions    int
	Concurrency int
	Rate        float64
	Duration    time.Duration
	Tenants     int
	OpenTimeout time.Duration
	// SessionTimeout bounds each session's whole lifetime (open through
	// close) at one wall-clock deadline; with -inproc it is also handed to
	// the server as its reap timeout, so an abandoned session is shed
	// rather than leaked. 0 leaves only the OpenTimeout bound.
	SessionTimeout time.Duration
	// Admission is the in-process server's policy (-inproc only).
	Admission session.Admission
}

// loadReport aggregates one load phase.
type loadReport struct {
	Started    int
	Admitted   int
	Rejected   int
	Completed  int
	Failed     int
	Shed       int
	Mismatched int
	Tokens     int64
	Elapsed    time.Duration
	Latencies  []time.Duration // admitted sessions only, open -> close
}

func (r *loadReport) percentile(p float64) time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), r.Latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[min(i, len(s)-1)]
}

// referenceDigests runs the whole graph locally once and returns the
// expected digest per sink hosted on the client node — the bit-exactness
// oracle every session is checked against.
func referenceDigests(cfg loadConfig, sys *runcfg.System) (map[string]uint64, error) {
	g, m := sys.Graph, sys.Mapping
	ks, digests, err := sys.Kernels()
	if err != nil {
		return nil, err
	}
	if _, err := spi.Execute(g, m, ks, cfg.Iters); err != nil {
		return nil, err
	}
	want := map[string]uint64{}
	for name, d := range digests {
		a, _ := g.ActorByName(name)
		if sys.NodeOf[m.Proc[a]] == cfg.Link.Node {
			want[name] = *d
		}
	}
	return want, nil
}

// runOne drives a single session end to end and folds the outcome into
// rep under mu.
func runOne(cfg loadConfig, sys *runcfg.System, client *session.Client, tenant string, want map[string]uint64,
	rep *loadReport, mu *sync.Mutex) {
	ks, digests, err := sys.Kernels()
	if err != nil {
		mu.Lock()
		rep.Failed++
		mu.Unlock()
		return
	}

	t0 := time.Now()
	s, err := client.Open(tenant)
	if err != nil {
		mu.Lock()
		var oe *session.OpenError
		if errors.As(err, &oe) {
			rep.Rejected++
		} else {
			rep.Failed++
		}
		mu.Unlock()
		return
	}
	// Provider links never dial, but ExecuteDistributed validates the
	// address slot count.
	stats, execErr := spi.ExecuteDistributed(sys.Graph, sys.Mapping, ks, cfg.Iters, spi.DistOptions{
		Node: cfg.Link.Node, Addrs: make([]string, sys.Nodes()), NodeOf: sys.NodeOf, Links: s,
	})
	var status byte
	var cerr error
	if cfg.SessionTimeout > 0 {
		// The deadline is anchored at open, so exec time already spent
		// counts against it — the whole session fits the budget or fails.
		status, cerr = s.AwaitCloseDeadline(t0.Add(cfg.SessionTimeout))
	} else {
		status, cerr = s.AwaitClose(cfg.OpenTimeout)
	}
	client.Done(s)
	lat := time.Since(t0)

	mu.Lock()
	defer mu.Unlock()
	rep.Admitted++
	rep.Latencies = append(rep.Latencies, lat)
	switch {
	case status == session.CloseShed:
		rep.Shed++
	case execErr != nil || cerr != nil || status != session.CloseDone:
		rep.Failed++
	default:
		rep.Completed++
		if stats != nil {
			// Messages counts sends; on inbound edges the consumption shows
			// up as Acks instead. max() counts each edge's traffic once
			// whichever direction this node sits on.
			for _, e := range stats.Edges {
				n := e.Stats.Messages
				if e.Stats.Acks > n {
					n = e.Stats.Acks
				}
				rep.Tokens += n
			}
		}
		for name, wantD := range want {
			if *digests[name] != wantD {
				rep.Mismatched++
				break
			}
		}
	}
}

// clientSystem resolves the run description and finds the one server node
// the client shares edges with, returning that node and the client's half
// of the link's edge manifest.
func clientSystem(cfg loadConfig) (*runcfg.System, int, []transport.EdgeDecl, error) {
	sys, err := cfg.Build()
	if err != nil {
		return nil, 0, nil, err
	}
	decls, err := spi.PeerDecls(sys.Graph, sys.Mapping, sys.NodeOf, cfg.Link.Node, 0)
	if err != nil {
		return nil, 0, nil, err
	}
	if len(decls) != 1 {
		return nil, 0, nil, fmt.Errorf("client node %d must share edges with exactly one server node, has %d peers", cfg.Link.Node, len(decls))
	}
	var serverNode int
	for peer := range decls {
		serverNode = peer
	}
	return sys, serverNode, decls[serverNode], nil
}

// runLoad connects one session-capable link to the server and runs the
// configured load phase over it.
func runLoad(cfg loadConfig, tr transport.Transport) (*loadReport, error) {
	sys, _, edges, err := clientSystem(cfg)
	if err != nil {
		return nil, err
	}
	want, err := referenceDigests(cfg, sys)
	if err != nil {
		return nil, err
	}

	conn, err := transport.DialRetry(context.Background(), tr, cfg.Connect,
		transport.RetryConfig{Attempts: 100, BaseDelay: 5 * time.Millisecond})
	if err != nil {
		return nil, fmt.Errorf("could not reach server at %s: %w", cfg.Connect, err)
	}
	mux := session.NewMux(nil)
	lcfg := cfg.Link
	lcfg.Sessions, lcfg.Edges = true, edges
	if lcfg.Reconnect.Enabled() {
		lcfg.Redial = func() (transport.Conn, error) { return tr.Dial(cfg.Connect) }
	}
	link, err := transport.NewLink(conn, lcfg, mux)
	if err != nil {
		return nil, err
	}
	defer link.Abort()
	mux.Bind(link)
	client := session.NewClient(mux, cfg.OpenTimeout)

	rep := &loadReport{}
	var mu sync.Mutex
	var started atomic.Int64
	deadline := time.Time{}
	if cfg.Duration > 0 {
		deadline = time.Now().Add(cfg.Duration)
	}
	expired := func() bool { return !deadline.IsZero() && time.Now().After(deadline) }
	tenantOf := func(i int64) string { return "tenant-" + strconv.Itoa(int(i)%cfg.Tenants) }

	t0 := time.Now()
	var wg sync.WaitGroup
	if cfg.Rate > 0 {
		// Open loop: start sessions on a fixed cadence, completions be
		// damned — the admission controller is the relief valve.
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for !expired() {
			i := started.Add(1) - 1
			if int(i) >= cfg.Sessions {
				started.Add(-1)
				break
			}
			wg.Add(1)
			go func(i int64) {
				defer wg.Done()
				runOne(cfg, sys, client, tenantOf(i), want, rep, &mu)
			}(i)
			<-tick.C
		}
	} else {
		workers := cfg.Concurrency
		if workers < 1 {
			workers = 1
		}
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := started.Add(1) - 1
					if int(i) >= cfg.Sessions || expired() {
						started.Add(-1)
						return
					}
					runOne(cfg, sys, client, tenantOf(i), want, rep, &mu)
				}
			}()
		}
	}
	wg.Wait()
	rep.Elapsed = time.Since(t0)
	rep.Started = int(started.Load())
	return rep, nil
}

// summarize prints the human-readable report and returns an error for
// outcomes that must fail the run: digest mismatches, or a load phase
// that admitted nothing (a misconfigured target otherwise looks green).
func summarize(w io.Writer, label string, rep *loadReport) error {
	tps := float64(0)
	if rep.Elapsed > 0 {
		tps = float64(rep.Tokens) / rep.Elapsed.Seconds()
	}
	fmt.Fprintf(w, "%s: %d sessions in %v: %d admitted (%d completed, %d failed, %d shed), %d rejected\n",
		label, rep.Started, rep.Elapsed.Round(time.Millisecond),
		rep.Admitted, rep.Completed, rep.Failed, rep.Shed, rep.Rejected)
	fmt.Fprintf(w, "%s: latency p50 %v p95 %v p99 %v, %.0f tokens/s\n",
		label, rep.percentile(50).Round(time.Microsecond),
		rep.percentile(95).Round(time.Microsecond),
		rep.percentile(99).Round(time.Microsecond), tps)
	if rep.Mismatched > 0 {
		return fmt.Errorf("%s: %d sessions produced digests differing from the single-run reference", label, rep.Mismatched)
	}
	if rep.Admitted == 0 {
		return fmt.Errorf("%s: zero sessions admitted (%d rejected, %d failed)", label, rep.Rejected, rep.Failed)
	}
	return nil
}

func newFlagSet(c *loadConfig, inproc, inprocTCP *bool) *flag.FlagSet {
	fs := flag.NewFlagSet("spiload", flag.ExitOnError)
	c.GraphFlags(fs) // no -graph: the built-in 3-actor pipeline, assigned 0,1,1 on nodes 0,1
	c.NodeOfFlag(fs)
	c.SeedFlag(fs)  // must match the server's for digest verification
	c.ChaosFlag(fs) // client side only
	runcfg.ReconnectFlags(fs, &c.Link.Reconnect)
	runcfg.AdmissionFlags(fs, &c.Admission) // -inproc only
	fs.IntVar(&c.Link.Node, "node", 1, "this client's node index")
	fs.StringVar(&c.Connect, "connect", "", "session server address (required unless -inproc)")
	fs.IntVar(&c.Sessions, "sessions", 100, "total sessions to run")
	fs.IntVar(&c.Concurrency, "concurrency", 8, "closed-loop worker count (ignored when -rate > 0)")
	fs.Float64Var(&c.Rate, "rate", 0, "open-loop session starts per second (0 = closed loop)")
	fs.DurationVar(&c.Duration, "duration", 0, "stop starting new sessions after this long (0 = run all -sessions)")
	fs.IntVar(&c.Tenants, "tenants", 1, "tenant names to round-robin sessions across")
	fs.DurationVar(&c.OpenTimeout, "open-timeout", 30*time.Second, "per-session open/close wait bound")
	fs.DurationVar(&c.SessionTimeout, "session-timeout", 0,
		"hard wall-clock budget per session from open to close; with -inproc the server also reaps sessions idle this long (0 = off)")
	fs.BoolVar(inproc, "inproc", false, "start an in-process session server over loopback (self-contained)")
	fs.BoolVar(inprocTCP, "inproc-tcp", false, "like -inproc but served over localhost TCP")
	return fs
}

func main() {
	cfg := loadConfig{Run: runcfg.Run{Iters: 10, Seed: 1, Transport: "tcp"}}
	var inproc, inprocTCP bool
	newFlagSet(&cfg, &inproc, &inprocTCP).Parse(os.Args[1:])
	fail := func(code int, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "spiload:", err)
			os.Exit(code)
		}
	}
	cfg.Tenants = max(cfg.Tenants, 1)
	if cfg.GraphPath == "" {
		cfg.Graph, _ = dataflow.Parse(strings.NewReader(builtinGraph)) // a constant the tests parse
		cfg.Assign = []int{0, 1, 1}
		if cfg.NodeOf == nil {
			cfg.NodeOf = []int{0, 1}
		}
	}
	if inproc {
		cfg.Transport = "loopback"
	}
	tr, local, err := cfg.OpenTransport()
	fail(1, err)
	if inproc || inprocTCP {
		stop, addr, err := startInproc(cfg, tr, local(0), os.Stderr)
		if err != nil {
			fail(1, fmt.Errorf("-inproc: %w", err))
		}
		defer stop()
		cfg.Connect = addr
	} else if cfg.Connect == "" {
		fail(2, errors.New("-connect is required (or use -inproc)"))
	}
	if cfg.Chaos != nil {
		tr = transport.NewFaultTransport(tr, *cfg.Chaos)
	}
	rep, err := runLoad(cfg, tr)
	fail(1, err)
	fail(1, summarize(os.Stdout, "load", rep))
}
