// Package runcfg is the one place the runtime CLIs (spinode, spirun,
// spictl, spiload) describe a run. The shared flags bind straight onto the
// library's own option structs (spi.DistOptions, transport.ReconnectConfig,
// session.Admission), Build resolves -graph/-assign/-nodeof/-fission into
// the system to execute, and OpenTransport maps -transport to a byte
// transport. The rule for a new run option: one field on the library
// struct, one line in the binder below — no per-CLI mirror field, no
// hand-written copy into an options literal.
package runcfg

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/demo"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/spi"
	"repro/internal/transport"
)

// Run is one run description. A CLI fills in its defaults, calls the flag
// groups it exposes, and hands the parsed value to its run function; tests
// construct it directly.
type Run struct {
	// What to execute. Graph, when set, is used as is (a CLI's built-in
	// graph, a test's parsed one); otherwise Build loads GraphPath.
	Graph        *dataflow.Graph
	GraphPath    string // -graph
	Assign       []int  // -assign: processor per actor, in graph order
	NodeOf       []int  // -nodeof: node per processor; nil = processor p on node p
	Iters        int    // -iters
	Seed         uint64 // -seed
	Fission      int    // -fission: replicas of FissionActor; 0 = off
	FissionActor string // -fission-actor; "" = the heaviest fissionable actor

	// How: the library's own description of a distributed run. The tuning
	// flags store into it directly; callers add Node, Addrs, Listener.
	Opts spi.DistOptions
	// Deadline is -deadline. DistOptions carries a run's time budget as a
	// Context, which a flag cannot hold, so the caller converts.
	Deadline time.Duration

	// Over what.
	Transport string                 // -transport: tcp or loopback
	Chaos     *transport.FaultConfig // -chaos; nil = no fault injection
}

// SeedFlag declares -seed.
func (r *Run) SeedFlag(fs *flag.FlagSet) {
	fs.Uint64Var(&r.Seed, "seed", r.Seed, "deterministic seed; every process of one run must use the same")
}

// GraphFlags declares -graph, -assign and -iters.
func (r *Run) GraphFlags(fs *flag.FlagSet) {
	fs.StringVar(&r.GraphPath, "graph", r.GraphPath, "dataflow graph file (see internal/dataflow parse format)")
	fs.Func("assign", "comma-separated processor index per actor, in graph order (e.g. 0,1,1)", IntsVar(&r.Assign))
	fs.IntVar(&r.Iters, "iters", r.Iters, "graph iterations to execute")
}

// NodeOfFlag declares -nodeof.
func (r *Run) NodeOfFlag(fs *flag.FlagSet) {
	fs.Func("nodeof", "comma-separated node index per processor (default: processor p on node p)", IntsVar(&r.NodeOf))
}

// FissionFlags declares -fission and -fission-actor.
func (r *Run) FissionFlags(fs *flag.FlagSet) {
	fs.IntVar(&r.Fission, "fission", r.Fission,
		"rewrite the heaviest fissionable actor (or -fission-actor) into this many replicas behind scatter/gather stages before executing; digests stay bit-identical to the unfissioned run (0 = off)")
	fs.StringVar(&r.FissionActor, "fission-actor", r.FissionActor,
		"with -fission: name of the actor to fission (default: the heaviest fissionable one)")
}

// LivenessFlags declares -resync, -heartbeat, -peer-timeout and -deadline.
func (r *Run) LivenessFlags(fs *flag.FlagSet) {
	o := &r.Opts
	fs.BoolVar(&o.Resync, "resync", o.Resync,
		"suppress UBS acks on edges whose synchronization the sync graph proves another path already covers; checked per link at the handshake, a peer run without it is refused (bit-identical digests either way)")
	fs.DurationVar(&o.Heartbeat, "heartbeat", o.Heartbeat,
		"PING idle links at this interval to detect silent peers; local policy, a peer run without it still answers (0 = off)")
	fs.DurationVar(&o.PeerTimeout, "peer-timeout", o.PeerTimeout,
		"declare a peer dead after this much silence when -heartbeat is on (0 = 4x heartbeat)")
	fs.DurationVar(&r.Deadline, "deadline", r.Deadline,
		"hard time budget for the whole run: past it every blocked actor is released and the run fails with a deadline error (0 = unbounded)")
}

// WireFlags declares -block and -stall-timeout.
func (r *Run) WireFlags(fs *flag.FlagSet) {
	o := &r.Opts
	fs.IntVar(&o.Block, "block", o.Block,
		"vectorization blocking factor B: fire B iterations per block and pack B tokens per message on every cross-processor edge; all nodes must agree (0 = off, bit-identical digests either way)")
	fs.DurationVar(&o.StallTimeout, "stall-timeout", o.StallTimeout,
		"abort the run if no actor fires and no edge moves for this long, naming the stalled actors (0 = off)")
}

// ReconnectFlags declares -reconnect and -reconnect-deadline onto rc. The
// deadline's 15 s default is inert until -reconnect enables resumption.
func ReconnectFlags(fs *flag.FlagSet, rc *transport.ReconnectConfig) {
	fs.IntVar(&rc.Attempts, "reconnect", rc.Attempts, "reconnect attempts after a link drop (0 = fail fast)")
	fs.DurationVar(&rc.Deadline, "reconnect-deadline", 15*time.Second, "total time budget for resuming one dropped link")
}

// AdmissionFlags declares -max-sessions and -tenant-quota onto a.
func AdmissionFlags(fs *flag.FlagSet, a *session.Admission) {
	fs.IntVar(&a.MaxSessions, "max-sessions", a.MaxSessions,
		"session server: cap on concurrently live sessions across all tenants (0 = unbounded)")
	fs.IntVar(&a.TenantQuota, "tenant-quota", a.TenantQuota,
		"session server: cap on concurrently live sessions per tenant (0 = unbounded)")
}

// ChaosFlag declares -chaos.
func (r *Run) ChaosFlag(fs *flag.FlagSet) {
	fs.Func("chaos", "fault-injection spec, e.g. seed=7,drop=0.05,severat=40;90 (see transport.ParseFaultSpec)",
		func(s string) error {
			fc, err := transport.ParseFaultSpec(s)
			if err == nil {
				r.Chaos = &fc
			}
			return err
		})
}

// IntsVar is the flag.Func parser of a comma-separated integer list flag.
func IntsVar(dst *[]int) func(string) error {
	return func(s string) (err error) {
		*dst, err = parseInts(s)
		return err
	}
}

// parseInts parses a comma-separated integer list; an empty one is an error.
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, errors.New("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad entry %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// LoadGraph parses the graph description file at path.
func LoadGraph(path string) (*dataflow.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataflow.Parse(f)
}

// FissionTarget resolves -fission-actor: the named actor, or the heaviest
// fissionable one when name is empty.
func FissionTarget(g *dataflow.Graph, name string) (dataflow.ActorID, error) {
	if name == "" {
		return dataflow.HeaviestFissionable(g)
	}
	a, ok := g.ActorByName(name)
	if !ok {
		return dataflow.NoActor, fmt.Errorf("-fission-actor: graph %q has no actor %q", g.Name(), name)
	}
	return a, nil
}

// System is a run description resolved into what the executors take.
type System struct {
	Graph   *dataflow.Graph // the rewritten graph under -fission
	Mapping *sched.Mapping
	NodeOf  []int                 // node per processor; never nil
	Plan    *dataflow.FissionPlan // nil unless -fission
	seed    uint64
}

// Build resolves the description into the system to execute: the graph,
// the mapping of -assign, under -fission the rewritten graph with its
// extended mapping, and the node of every processor.
func (r *Run) Build() (*System, error) {
	g := r.Graph
	if g == nil {
		var err error
		if g, err = LoadGraph(r.GraphPath); err != nil {
			return nil, fmt.Errorf("-graph: %w", err)
		}
	}
	m, err := demo.Mapping(g, r.Assign)
	if err != nil {
		return nil, fmt.Errorf("-assign: %w", err)
	}
	sys := &System{Graph: g, Mapping: m, seed: r.Seed}
	serialProcs := m.NumProcs
	if r.Fission > 0 {
		target, err := FissionTarget(g, r.FissionActor)
		if err != nil {
			return nil, err
		}
		if sys.Plan, err = dataflow.Fission(g, target, dataflow.FissionOptions{K: r.Fission}); err != nil {
			return nil, fmt.Errorf("-fission: %w", err)
		}
		if sys.Mapping, err = sched.ExtendFission(m, sys.Plan); err != nil {
			return nil, fmt.Errorf("-fission: %w", err)
		}
		sys.Graph = sys.Plan.Graph
	}
	procs := sys.Mapping.NumProcs
	sys.NodeOf = make([]int, procs)
	switch len(r.NodeOf) {
	case 0:
		for p := range sys.NodeOf {
			sys.NodeOf[p] = p
		}
	case procs:
		copy(sys.NodeOf, r.NodeOf)
	case serialProcs:
		// -nodeof names the serial graph's processors; the fission pass
		// appended one fresh processor per replica. Co-locate those with
		// the scatter stage's node so fission never changes the node
		// layout the user asked for — replicas are a same-host concern.
		copy(sys.NodeOf, r.NodeOf)
		home := r.NodeOf[sys.Mapping.Proc[sys.Plan.Scatter]]
		for p := serialProcs; p < procs; p++ {
			sys.NodeOf[p] = home
		}
	default:
		want := fmt.Sprint(procs)
		if sys.Plan != nil {
			want = fmt.Sprintf("%d (or the %d before -fission)", procs, serialProcs)
		}
		return nil, fmt.Errorf("-nodeof lists %d nodes for %s processors", len(r.NodeOf), want)
	}
	return sys, nil
}

// Nodes is the node count the system's NodeOf spans.
func (s *System) Nodes() int {
	n := 0
	for _, node := range s.NodeOf {
		n = max(n, node+1)
	}
	return n
}

// Kernels returns a fresh set of the deterministic demo kernels and the
// digest slot of every sink they fold into. Under fission the replicas run
// the original kernel in transparent replication mode, so the digests match
// the unfissioned run bit for bit.
func (s *System) Kernels() (map[dataflow.ActorID]spi.Kernel, map[string]*uint64, error) {
	src := s.Graph
	if s.Plan != nil {
		src = s.Plan.Source
	}
	digests := demo.Sinks(src)
	ks, err := demo.Kernels(src, s.seed, digests, new(sync.Mutex))
	if err == nil && s.Plan != nil {
		ks, err = spi.FissionKernels(s.Plan, ks)
	}
	return ks, digests, err
}

// SessionKernels is Kernels in the shape session.ServerConfig.Kernels takes:
// fresh kernel state per session, so sessions share nothing but the
// immutable graph, and all on the one seed, so each reproduces the
// single-run digests. Build already validated what Kernels checks; were it
// to fail regardless, the empty set fails the session's first firing by name.
func (s *System) SessionKernels(sid uint32, tenant string) map[dataflow.ActorID]spi.Kernel {
	ks, _, err := s.Kernels()
	if err != nil {
		return map[dataflow.ActorID]spi.Kernel{}
	}
	return ks
}

// LinkConfig is o's link tuning as a transport.LinkConfig, for the
// session-multiplexed links a CLI opens itself instead of through
// spi.ExecuteDistributed. Session-tagged acks are never resync-suppressed,
// so o.Resync has no counterpart here.
func LinkConfig(o *spi.DistOptions) transport.LinkConfig {
	return transport.LinkConfig{
		Node: o.Node, Sessions: true, Blocked: o.Block > 1,
		Reconnect: o.Reconnect, Heartbeat: o.Heartbeat, PeerTimeout: o.PeerTimeout, Obs: o.Obs,
	}
}

// OpenTransport maps -transport to the byte transport and the address the
// i-th endpoint of a self-contained (one-process) run listens on. -chaos is
// left to the caller: spiload faults only its client side.
func (r *Run) OpenTransport() (transport.Transport, func(i int) string, error) {
	switch r.Transport {
	case "tcp":
		return &transport.TCP{}, func(int) string { return "127.0.0.1:0" }, nil
	case "loopback":
		return transport.NewLoopback(), func(i int) string { return fmt.Sprintf("inproc-n%d", i) }, nil
	}
	return nil, nil, fmt.Errorf("unknown -transport %q (tcp or loopback)", r.Transport)
}
