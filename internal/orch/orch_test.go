package orch

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/demo"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/transport"
)

// End-to-end orchestration tests: a coordinator and a pool of workers
// over a shared loopback, demo kernels on both sides, and the static
// single-node run as the bit-identity reference.

const orchSeed = 11

// orchGraph is a 4-actor signal chain over 3 processors, covering every
// edge class: cross-processor static with delay, cross-processor dynamic
// with delay, cross-processor static without delay, and a same-processor
// delayed edge.
func orchGraph() (*dataflow.Graph, *sched.Mapping, error) {
	g := dataflow.New("orch")
	src := g.AddActor("SRC", 1)
	fir := g.AddActor("FIR", 1)
	dec := g.AddActor("DEC", 1)
	snk := g.AddActor("SNK", 1)
	g.AddEdge("sf", src, fir, 1, 1, dataflow.EdgeSpec{TokenBytes: 8, Delay: 2})
	g.AddEdge("fd", fir, dec, 1, 1, dataflow.EdgeSpec{TokenBytes: 16, Delay: 1,
		ProduceDynamic: true, ConsumeDynamic: true})
	g.AddEdge("ds", dec, snk, 1, 1, dataflow.EdgeSpec{TokenBytes: 4})
	g.AddEdge("ss", src, snk, 1, 1, dataflow.EdgeSpec{TokenBytes: 6, Delay: 1})
	m, err := demo.Mapping(g, []int{0, 1, 2, 0})
	return g, m, err
}

// resyncGraph is a round trip SRC → W → SNK between processors 0 and 1,
// whose two UBS acknowledgements the §4 verdict proves redundant (each is
// covered by the other edge and processor 0's loop), plus a tap W → TAP
// onto processor 2 whose acknowledgement it keeps. On three workers the
// node-wide suppression sets are therefore {in, out}, {in, out} and {}.
func resyncGraph() (*dataflow.Graph, *sched.Mapping, error) {
	g := dataflow.New("resync")
	src := g.AddActor("SRC", 1)
	w := g.AddActor("W", 1)
	snk := g.AddActor("SNK", 1)
	tap := g.AddActor("TAP", 1)
	g.AddEdge("in", src, w, 1, 1, dataflow.EdgeSpec{TokenBytes: 8})
	g.AddEdge("out", w, snk, 1, 1, dataflow.EdgeSpec{TokenBytes: 8})
	g.AddEdge("wt", w, tap, 1, 1, dataflow.EdgeSpec{TokenBytes: 4})
	m, err := demo.Mapping(g, []int{0, 1, 0, 2})
	return g, m, err
}

// staticDigests runs the unpartitioned single-node reference of orchGraph.
func staticDigests(t *testing.T, iterations int) map[string]uint64 {
	t.Helper()
	return staticDigestsOf(t, orchGraph, iterations)
}

func staticDigestsOf(t *testing.T, graph func() (*dataflow.Graph, *sched.Mapping, error), iterations int) map[string]uint64 {
	t.Helper()
	g, m, err := graph()
	if err != nil {
		t.Fatal(err)
	}
	digests := demo.Sinks(g)
	var mu sync.Mutex
	kernels, err := demo.Kernels(g, orchSeed, digests, &mu)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spi.Execute(g, m, kernels, iterations); err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	for name, d := range digests {
		out[name] = *d
	}
	return out
}

// demoProvider builds the worker-side kernel set from a partition spec.
func demoProvider(spec *spi.PartitionSpec) (*KernelSet, error) {
	kernels, sinks := demo.PartKernels(spec, orchSeed)
	return &KernelSet{Kernels: kernels, Collect: sinks.Take}, nil
}

// chokeConn swallows writes once choked — the connection looks alive from
// this side (writes "succeed") but the peer hears pure silence, which is
// exactly the failure heartbeat liveness exists to catch.
type chokeConn struct {
	transport.Conn
	ct *chokeTransport
}

func (c *chokeConn) Write(p []byte) (int, error) {
	c.ct.mu.Lock()
	choked := c.ct.choked
	c.ct.mu.Unlock()
	if choked {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

type chokeListener struct {
	transport.Listener
	ct *chokeTransport
}

func (l *chokeListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &chokeConn{Conn: c, ct: l.ct}, nil
}

// chokeTransport wraps a transport so every connection this side makes or
// accepts can be silenced at once.
type chokeTransport struct {
	transport.Transport
	mu     sync.Mutex
	choked bool
}

func (ct *chokeTransport) Choke() {
	ct.mu.Lock()
	ct.choked = true
	ct.mu.Unlock()
}

func (ct *chokeTransport) Dial(addr string) (transport.Conn, error) {
	c, err := ct.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &chokeConn{Conn: c, ct: ct}, nil
}

func (ct *chokeTransport) Listen(addr string) (transport.Listener, error) {
	ln, err := ct.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &chokeListener{Listener: ln, ct: ct}, nil
}

// orchRig wires a coordinator and workers over one loopback.
type orchRig struct {
	t     *testing.T
	tr    transport.Transport
	errs  map[string]chan error
	stops map[string]context.CancelFunc
	graph func() (*dataflow.Graph, *sched.Mapping, error)
	// onSpec, when set, sees every partition spec a worker is handed;
	// obs, when it names a worker, instruments that worker's data plane.
	onSpec func(worker string, spec *spi.PartitionSpec)
	obs    map[string]*obs.Observer
}

func newRig(t *testing.T) *orchRig {
	return &orchRig{t: t, tr: transport.NewLoopback(), graph: orchGraph,
		errs: map[string]chan error{}, stops: map[string]context.CancelFunc{}}
}

func fastRetry() transport.RetryConfig {
	return transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond}
}

// worker launches one worker over tr (the rig's loopback unless a choke
// wrapper is supplied) and records its exit error.
func (r *orchRig) worker(name string, tr transport.Transport) {
	if tr == nil {
		tr = r.tr
	}
	w, err := NewWorker(WorkerConfig{
		Transport: tr, Coord: "coord", Name: name, Retry: fastRetry(), Obs: r.obs[name],
		Kernels: func(spec *spi.PartitionSpec) (*KernelSet, error) {
			if r.onSpec != nil {
				r.onSpec(name, spec)
			}
			return demoProvider(spec)
		},
		Heartbeat: 20 * time.Millisecond, PeerTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.stops[name] = cancel
	ch := make(chan error, 1)
	r.errs[name] = ch
	go func() { ch <- w.Run(ctx) }()
}

// coord runs the coordinator to completion.
func (r *orchRig) coord(iterations, epochIters, minWorkers int, tweak func(*CoordConfig)) (*Report, error) {
	g, m, err := r.graph()
	if err != nil {
		r.t.Fatal(err)
	}
	cfg := CoordConfig{
		Transport: r.tr, Addr: "coord", Graph: g, Mapping: m,
		Iterations: iterations, EpochIters: epochIters, MinWorkers: minWorkers,
		Heartbeat: 20 * time.Millisecond, PeerTimeout: 150 * time.Millisecond,
		EpochTimeout: 15 * time.Second,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return c.Run(ctx)
}

func (r *orchRig) stopAll() {
	for _, cancel := range r.stops {
		cancel()
	}
}

// checkBlock holds a run to the blocking factor the coordinator must pick.
func checkBlock(t *testing.T, rep *Report, want int) {
	t.Helper()
	if rep.Block != want {
		t.Errorf("run at block %d, want %d", rep.Block, want)
	}
}

func checkDigests(t *testing.T, rep *Report, want map[string]uint64) {
	t.Helper()
	if len(rep.Digests) != len(want) {
		t.Fatalf("digests = %v, want %v", rep.Digests, want)
	}
	for name, w := range want {
		if rep.Digests[name] != w {
			t.Errorf("sink %s digest = %#x, want %#x (static)", name, rep.Digests[name], w)
		}
	}
}

// TestOrchestratedBlockRule: the coordinator runs every epoch at the largest
// B ≤ 16 that divides the epoch length and that the mapped schedule admits.
func TestOrchestratedBlockRule(t *testing.T) {
	g, m, err := orchGraph()
	if err != nil {
		t.Fatal(err)
	}
	for epochIters, want := range map[int]int{64: 16, 6: 6, 24: 12, 17: 1, 1: 1} {
		if got := epochBlock(g, m, epochIters); got != want {
			t.Errorf("orch graph, epochs of %d: block %d, want %d", epochIters, got, want)
		}
	}
	// A cycle whose delay of 8 iterations decouples blocks of 8 but not 16.
	cyc := dataflow.New("cycle")
	a, b := cyc.AddActor("A", 1), cyc.AddActor("B", 1)
	cyc.AddEdge("fwd", a, b, 1, 1, dataflow.EdgeSpec{TokenBytes: 2})
	cyc.AddEdge("back", b, a, 1, 1, dataflow.EdgeSpec{TokenBytes: 2, Delay: 8})
	cm, err := demo.Mapping(cyc, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := epochBlock(cyc, cm, 64); got != 8 {
		t.Errorf("cycle with a delay of 8, epochs of 64: block %d, want 8", got)
	}
}

// TestOrchestratedMatchesStatic runs a healthy 3-worker pool over several
// epochs and checks the folded digests are bit-identical to the static
// single-node run.
func TestOrchestratedMatchesStatic(t *testing.T) {
	const iterations = 24
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	for _, n := range []string{"w0", "w1", "w2"} {
		r.worker(n, nil)
	}
	rep, err := r.coord(iterations, 6, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	if rep.Iterations != iterations || rep.Commits != 4 || rep.Aborts != 0 {
		t.Errorf("iterations/commits/aborts = %d/%d/%d, want %d/4/0",
			rep.Iterations, rep.Commits, rep.Aborts, iterations)
	}
	for _, n := range []string{"w0", "w1", "w2"} {
		if err := <-r.errs[n]; err != nil {
			t.Errorf("worker %s: %v", n, err)
		}
	}
}

// TestOrchestratedForcedMigration rotates the placement at one epoch
// boundary — a forced live migration of every processor — and requires
// bit-identical digests plus a nonzero migration count.
func TestOrchestratedForcedMigration(t *testing.T) {
	const iterations = 24
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	for _, n := range []string{"w0", "w1", "w2"} {
		r.worker(n, nil)
	}
	rep, err := r.coord(iterations, 6, 3, func(cfg *CoordConfig) {
		cfg.OnPlace = func(epoch int, placement []int, ids []uint32) []int {
			if epoch != 2 {
				return placement
			}
			rotated := make([]int, len(placement))
			for p, slot := range placement {
				rotated[p] = (slot + 1) % len(ids)
			}
			return rotated
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	checkBlock(t, rep, 6)
	if rep.Migrations == 0 {
		t.Error("forced rotation produced no recorded migrations")
	}
	if rep.Aborts != 0 {
		t.Errorf("planned migration needed %d aborts; it must be abort-free", rep.Aborts)
	}
}

// TestOrchestratedWorkerDeath kills one worker as an epoch dispatches.
// The coordinator must abort the epoch, reap the worker, re-place its
// processors on the survivors, replay the stalled iterations, and still
// produce bit-identical digests — no duplicated and no lost tokens.
func TestOrchestratedWorkerDeath(t *testing.T) {
	const iterations = 24
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	for _, n := range []string{"w0", "w1", "w2"} {
		r.worker(n, nil)
	}
	var once sync.Once
	rep, err := r.coord(iterations, 6, 3, func(cfg *CoordConfig) {
		cfg.OnDispatch = func(epoch int) {
			if epoch == 1 {
				once.Do(func() { r.stops["w2"]() })
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	checkBlock(t, rep, 6)
	if rep.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", rep.WorkersLost)
	}
	if rep.Migrations == 0 {
		t.Error("dead worker's processors were never re-placed")
	}
	if rep.Iterations != iterations {
		t.Errorf("committed %d iterations, want %d", rep.Iterations, iterations)
	}
}

// TestOrchestratedHeartbeatDeath chokes one worker mid-epoch: its writes
// vanish but its connections stay open, so only heartbeat liveness can
// declare it dead. The pool must detect, abort, re-place, and finish with
// bit-identical digests, counting the stalled tokens.
func TestOrchestratedHeartbeatDeath(t *testing.T) {
	const iterations = 24
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	ct := &chokeTransport{Transport: r.tr}
	r.worker("w0", nil)
	r.worker("w1", ct)
	r.worker("w2", nil)
	var once sync.Once
	rep, err := r.coord(iterations, 6, 3, func(cfg *CoordConfig) {
		cfg.OnDispatch = func(epoch int) {
			if epoch == 1 {
				once.Do(ct.Choke)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	checkBlock(t, rep, 6)
	if rep.Aborts == 0 || rep.StalledTokens == 0 {
		t.Errorf("aborts/stalled = %d/%d, want both nonzero", rep.Aborts, rep.StalledTokens)
	}
	if rep.WorkersLost == 0 {
		t.Error("choked worker was never declared dead")
	}
	if rep.RecoveryNS <= 0 {
		t.Error("recovery time was not measured")
	}
	if err := <-r.errs["w1"]; err == nil {
		t.Error("choked worker exited cleanly")
	}
}

// ctrlFaultTransport routes only the worker's control-plane dial (the
// coordinator address) through a seeded chaos transport; the data plane
// and listeners pass through untouched. This aims the fault schedule at
// one connection deterministically.
type ctrlFaultTransport struct {
	transport.Transport
	ft    *transport.FaultTransport
	coord string
}

func (s *ctrlFaultTransport) Dial(addr string) (transport.Conn, error) {
	if addr == s.coord {
		return s.ft.Dial(addr)
	}
	return s.Transport.Dial(addr)
}

// TestOrchestratedChaosSeverMigration severs the source worker's control
// link mid-block under a seeded fault schedule. The coordinator must see
// the dead link, reap the worker, migrate its actors (SRC included) onto
// the survivors, and replay — with sink digests bit-identical to the
// static run.
func TestOrchestratedChaosSeverMigration(t *testing.T) {
	const iterations = 24
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	// w0 writes HELLO, Register, Ready and then one Done per epoch on its
	// control link: write 4 is the Done of the first warm epoch.
	ft := transport.NewFaultTransport(r.tr, transport.FaultConfig{
		Seed: 7, SeverAt: []int{4}, SkipFrames: 2,
	})
	// Stagger the registrations so w0 takes slot 0 — the source worker:
	// with uniform load the balancer leaves proc 0 (SRC) on the first
	// registered worker.
	r.worker("w0", &ctrlFaultTransport{Transport: r.tr, ft: ft, coord: "coord"})
	time.Sleep(50 * time.Millisecond)
	r.worker("w1", nil)
	r.worker("w2", nil)
	rep, err := r.coord(iterations, 6, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	checkBlock(t, rep, 6)
	if st := ft.Stats(); st.Severs == 0 {
		t.Fatal("fault schedule never severed the control link")
	}
	if rep.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", rep.WorkersLost)
	}
	if rep.Migrations == 0 {
		t.Error("severed worker's actors were never migrated")
	}
	if rep.Iterations != iterations {
		t.Errorf("committed %d iterations, want %d", rep.Iterations, iterations)
	}
	if err := <-r.errs["w0"]; err == nil {
		t.Error("severed worker exited cleanly")
	}
}

// TestOrchestratedLateJoiner starts with a single worker and adds a
// second mid-run: the next epoch boundary must rebalance processors onto
// the joiner (a migration), with digests unmoved.
func TestOrchestratedLateJoiner(t *testing.T) {
	const iterations = 24
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	r.worker("w0", nil)
	var once sync.Once
	rep, err := r.coord(iterations, 6, 1, func(cfg *CoordConfig) {
		cfg.OnDispatch = func(epoch int) {
			if epoch == 0 {
				// Warm epochs take well under a millisecond: hold this one
				// until the joiner's Register is on its way, or the run
				// can be over before it arrives.
				once.Do(func() {
					r.worker("late", nil)
					time.Sleep(50 * time.Millisecond)
				})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	if rep.WorkersSeen != 2 {
		t.Errorf("WorkersSeen = %d, want 2", rep.WorkersSeen)
	}
	if rep.Migrations == 0 {
		t.Error("late joiner never picked up rebalanced processors")
	}
	// One deployment on the lone worker, one on the pair (and another if
	// the measured loads then call for a better split); every other epoch
	// ran warm on whichever stood.
	if rep.Deploys < 2 || rep.WarmEpochs != rep.Epochs-rep.Deploys || rep.Aborts != 0 {
		t.Errorf("deploys/warm/epochs/aborts = %d/%d/%d/%d, want at least 2 deployments, the rest warm, 0 aborts",
			rep.Deploys, rep.WarmEpochs, rep.Epochs, rep.Aborts)
	}
}

// Standing-deployment tests: a committed placement stays deployed — links,
// runtime edges and kernels resident on the workers — and later
// epochs reach it with one Continue each. Every departure from the last
// commit (a placement rewrite, a death, a failed warm epoch, a pool
// change) must fall back to a cold deployment from the last checkpoint,
// with digests still bit-identical to the static run.

// TestOrchestratedStandingDeployment runs 300 fault-free epochs of 64 on
// three workers: one cold deployment, every other epoch warm, no
// processor ever moved.
func TestOrchestratedStandingDeployment(t *testing.T) {
	const epochs, epochIters = 300, 64
	want := staticDigests(t, epochs*epochIters)
	r := newRig(t)
	defer r.stopAll()
	for _, n := range []string{"w0", "w1", "w2"} {
		r.worker(n, nil)
	}
	o := obs.New()
	dispatches := 0
	rep, err := r.coord(epochs*epochIters, epochIters, 3, func(cfg *CoordConfig) {
		cfg.Obs = o
		cfg.OnDispatch = func(int) { dispatches++ }
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	checkBlock(t, rep, 16)
	if rep.Epochs != epochs || rep.Commits != epochs || rep.Aborts != 0 {
		t.Errorf("epochs/commits/aborts = %d/%d/%d, want %d/%d/0", rep.Epochs, rep.Commits, rep.Aborts, epochs, epochs)
	}
	if rep.Deploys != 1 || rep.WarmEpochs != epochs-1 || rep.Migrations != 0 {
		t.Errorf("deploys/warm/migrations = %d/%d/%d, want 1/%d/0", rep.Deploys, rep.WarmEpochs, rep.Migrations, epochs-1)
	}
	if dispatches != epochs {
		t.Errorf("OnDispatch fired %d times, want once per epoch (%d)", dispatches, epochs)
	}
	for name, wantN := range map[string]int64{"orch_deploys_total": 1, "orch_aborts_total": 0, "orch_epochs_total": epochs} {
		if got := o.Metrics.Sum(name); got != wantN {
			t.Errorf("%s = %d, want %d", name, got, wantN)
		}
	}
	if got, _ := o.Metrics.Get("orch_epochs_total", obs.L("kind", "warm")); got != epochs-1 {
		t.Errorf(`orch_epochs_total{kind="warm"} = %d, want %d`, got, epochs-1)
	}
	for _, n := range []string{"w0", "w1", "w2"} {
		if err := <-r.errs[n]; err != nil {
			t.Errorf("worker %s: %v", n, err)
		}
	}
}

// TestOrchestratedMigrationRedeploysOnce rotates the placement at one
// epoch: that epoch is the only cold one after the first, it needs no
// abort, and the rotated placement then stands.
func TestOrchestratedMigrationRedeploysOnce(t *testing.T) {
	const iterations = 60
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	for _, n := range []string{"w0", "w1", "w2"} {
		r.worker(n, nil)
	}
	o := obs.New()
	rep, err := r.coord(iterations, 6, 3, func(cfg *CoordConfig) {
		cfg.Obs = o
		cfg.OnPlace = func(epoch int, placement []int, ids []uint32) []int {
			if epoch != 4 {
				return placement
			}
			rotated := make([]int, len(placement))
			for p, slot := range placement {
				rotated[p] = (slot + 1) % len(ids)
			}
			return rotated
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	if rep.Deploys != 2 || rep.WarmEpochs != 8 || rep.Aborts != 0 || rep.Migrations != 3 {
		t.Errorf("deploys/warm/aborts/migrations = %d/%d/%d/%d, want 2/8/0/3",
			rep.Deploys, rep.WarmEpochs, rep.Aborts, rep.Migrations)
	}
	if pauses := o.Histogram("orch_migration_pause_us", "", nil); pauses.Count() != 1 || pauses.Sum() <= 0 {
		t.Errorf("migration pause observed %d times (sum %v µs), want once", pauses.Count(), pauses.Sum())
	}
}

// TestOrchestratedWarmEpochWorkerDeath kills a worker while a warm epoch
// runs on the standing deployment: that epoch aborts, the survivors are
// deployed cold from the last commit and replay exactly its iterations.
func TestOrchestratedWarmEpochWorkerDeath(t *testing.T) {
	const iterations, epochIters = 60, 6
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	for _, n := range []string{"w0", "w1", "w2"} {
		r.worker(n, nil)
	}
	var once sync.Once
	rep, err := r.coord(iterations, epochIters, 3, func(cfg *CoordConfig) {
		cfg.OnDispatch = func(epoch int) {
			if epoch == 3 {
				once.Do(func() { r.stops["w1"]() })
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	if rep.Aborts != 1 || rep.StalledTokens != epochIters || rep.WorkersLost != 1 {
		t.Errorf("aborts/stalled/lost = %d/%d/%d, want 1/%d/1", rep.Aborts, rep.StalledTokens, rep.WorkersLost, epochIters)
	}
	// Three processors on two survivors do not balance evenly, so measured
	// loads may justify further (abort-free) re-placements.
	if rep.Deploys < 2 || rep.WarmEpochs != rep.Epochs-rep.Deploys {
		t.Errorf("deploys/warm/epochs = %d/%d/%d, want at least 2 deployments and the rest warm", rep.Deploys, rep.WarmEpochs, rep.Epochs)
	}
	if rep.Iterations != iterations || rep.Migrations == 0 {
		t.Errorf("committed %d iterations with %d migrations", rep.Iterations, rep.Migrations)
	}
}

// TestOrchestratedResyncStanding: ack suppression is checked once, in the
// handshakes of the deployment's links, and holds across its warm epochs:
// the receiver of a suppressed edge counts every ack it did not send
// (EdgeStats.AcksSuppressed, exported per edge), issues none, and a worker
// that receives only on suppressed edges puts no ACK frame on the wire. A
// worker's node-wide
// suppression set holds only its own cross-worker edges, so two workers
// that share a link need not hold equal sets, and here one of them holds
// none. The run passing pins that a link compares the part of the two sets
// it carries: a "one side has a set, the other does not: refuse" rule, or
// one comparing the node-wide sets, fails it.
func TestOrchestratedResyncStanding(t *testing.T) {
	const iterations = 48
	want := staticDigestsOf(t, resyncGraph, iterations)
	r := newRig(t)
	defer r.stopAll()
	r.graph = resyncGraph
	r.obs = map[string]*obs.Observer{}
	type view struct {
		set      map[uint16]bool // the node-wide set, as lowerPartition builds it
		peers    map[int]bool    // workers it shares a data link with
		keptAcks int             // inbound cross-worker edges it still acknowledges
		node     int
		quiet    []string // inbound cross-worker edges whose acks are suppressed
	}
	var mu sync.Mutex
	views := map[string]*view{}
	r.onSpec = func(worker string, spec *spi.PartitionSpec) {
		v := &view{set: map[uint16]bool{}, peers: map[int]bool{}, node: spec.Node}
		for _, e := range spec.Edges {
			if e.SameProc || e.Out == e.In {
				continue
			}
			v.peers[e.Peer] = true
			switch {
			case e.SuppressAck:
				v.set[e.ID] = true
				if e.In {
					v.quiet = append(v.quiet, e.Name)
				}
			case e.In:
				v.keptAcks++
			}
		}
		mu.Lock()
		views[worker] = v
		mu.Unlock()
	}
	for _, n := range []string{"w0", "w1", "w2"} {
		r.obs[n] = obs.New()
		r.worker(n, nil)
	}
	rep, err := r.coord(iterations, 6, 3, func(cfg *CoordConfig) { cfg.Resync = true })
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	if rep.Deploys != 1 || rep.WarmEpochs != 7 || rep.Aborts != 0 {
		t.Errorf("deploys/warm/aborts = %d/%d/%d, want 1/7/0", rep.Deploys, rep.WarmEpochs, rep.Aborts)
	}
	unequal, suppressing := false, 0
	for name, v := range views {
		for _, o := range views {
			unequal = unequal || (v.peers[o.node] && !reflect.DeepEqual(v.set, o.set))
		}
		reg := r.obs[name].Metrics
		onWire := reg.Sum("transport_link_acks_sent_total")
		for _, edge := range v.quiet {
			suppressing++
			suppressed, _ := reg.Get("spi_edge_acks_suppressed_total", obs.L("edge", edge))
			acks, _ := reg.Get("spi_edge_acks_total", obs.L("edge", edge))
			if want := int64(iterations / rep.Block); suppressed != want || acks != 0 {
				t.Errorf("worker %s edge %s: %d acks suppressed, %d issued; want one suppressed per slab (%d) and none issued", name, edge, suppressed, acks, want)
			}
		}
		if v.keptAcks == 0 && onWire != 0 {
			t.Errorf("worker %s acknowledges only suppressed edges but put %d acks on the wire", name, onWire)
		}
		if v.keptAcks > 0 && onWire == 0 {
			t.Errorf("worker %s sent no acks for the %d edge(s) the verdict keeps", name, v.keptAcks)
		}
	}
	if suppressing == 0 {
		t.Error("no worker suppresses anything: the graph no longer exercises resync")
	}
	if !unequal {
		t.Errorf("every linked worker pair holds equal node-wide suppression sets: the graph no longer exercises the per-link comparison")
	}
}

// coldWorker is a worker that forgets its deployments: each Task is
// opened and run, but a Continue never finds a deployment to run on. Its
// links stay up until the coordinator's Abort, like those of a worker
// whose bookkeeping — not whose process — failed.
type coldWorker struct {
	tr     transport.Transport
	events chan workerEvent
	fails  int
}

func (w *coldWorker) run(ctx context.Context) error {
	conn, err := transport.DialRetry(ctx, w.tr, "coord", fastRetry())
	if err != nil {
		return err
	}
	link, err := transport.NewLink(conn, transport.LinkConfig{}, &workerHandler{events: w.events})
	if err != nil {
		return err
	}
	defer link.Close()
	send := func(msg any) {
		op, payload := Encode(msg)
		link.SendCtrl(op, payload)
	}
	send(Register{Name: "cold"})
	lns := map[uint32]transport.Listener{}
	var pr *spi.PartitionRun
	drop := func() {
		if pr != nil {
			pr.Close(false)
			pr = nil
		}
	}
	defer drop()
	for {
		var ev workerEvent
		select {
		case <-ctx.Done():
			return ctx.Err()
		case ev = <-w.events:
		}
		if ev.closed || ev.err != nil {
			return ev.err
		}
		switch m := ev.msg.(type) {
		case Prepare:
			drop()
			ln, err := w.tr.Listen(fmt.Sprintf("cold-data-e%d", m.Epoch))
			if err != nil {
				return err
			}
			lns[m.Epoch] = ln
			send(Ready{Epoch: m.Epoch, Addr: ln.Addr()})
		case Task:
			ks, _ := demoProvider(m.Spec)
			var res *spi.PartResult
			pr, err = spi.OpenPartition(m.Spec, ks.Kernels, spi.DistOptions{
				Transport: w.tr, Listener: lns[m.Epoch], Retry: fastRetry(), Context: ctx,
			})
			lns[m.Epoch].Close()
			if err == nil {
				if err = pr.Run(m.Spec.BaseIter, m.Spec.Iterations); err == nil {
					res = pr.Checkpoint()
				}
			}
			if err != nil {
				send(Fail{Epoch: m.Epoch, Msg: err.Error()})
				continue
			}
			done := Done{Epoch: m.Epoch, Digests: ks.Collect(), Tails: res.Tails,
				Firings: map[string]uint32{}, ProcNS: res.ProcNS}
			for name, n := range res.Firings {
				done.Firings[name] = uint32(n)
			}
			send(done)
		case Continue:
			w.fails++
			send(Fail{Epoch: m.Epoch, Msg: "no standing deployment"})
		case Abort:
			drop()
			send(AbortOK{Epoch: m.Epoch})
		case Shutdown:
			return nil
		}
	}
}

// TestOrchestratedContinueUnknownDeployment pools two real workers with
// one that never has a standing deployment. Every Continue it receives
// comes back as a Fail; the coordinator must abort that attempt, quiesce
// the real workers' deployments and retry the epoch cold — never hang,
// never commit a token twice.
func TestOrchestratedContinueUnknownDeployment(t *testing.T) {
	const iterations, epochIters = 24, 6
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	r.worker("w0", nil)
	r.worker("w1", nil)
	cold := &coldWorker{tr: r.tr, events: make(chan workerEvent, 64)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coldErr := make(chan error, 1)
	go func() { coldErr <- cold.run(ctx) }()
	rep, err := r.coord(iterations, epochIters, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	// Epoch 0 is cold; each later epoch is one refused warm attempt, then
	// a cold retry that commits.
	if rep.Commits != 4 || rep.Aborts != 3 || rep.Deploys != 4 || rep.WarmEpochs != 3 {
		t.Errorf("commits/aborts/deploys/warm = %d/%d/%d/%d, want 4/3/4/3",
			rep.Commits, rep.Aborts, rep.Deploys, rep.WarmEpochs)
	}
	if rep.StalledTokens != 3*epochIters || rep.WorkersLost != 0 || rep.Migrations != 0 {
		t.Errorf("stalled/lost/migrations = %d/%d/%d, want %d/0/0", rep.StalledTokens, rep.WorkersLost, rep.Migrations, 3*epochIters)
	}
	if err := <-coldErr; err != nil {
		t.Errorf("cold worker: %v", err)
	}
	if cold.fails != 3 {
		t.Errorf("cold worker refused %d continues, want 3", cold.fails)
	}
}

// TestWorkerContinueWithoutDeployment scripts the coordinator side of one
// control link: a Continue that matches no standing deployment — none at
// all, or one standing at another iteration — is answered with Fail.
func TestWorkerContinueWithoutDeployment(t *testing.T) {
	tr := transport.NewLoopback()
	ln, err := tr.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	w, err := NewWorker(WorkerConfig{Transport: tr, Coord: "coord", Name: "w0", Kernels: demoProvider, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(ctx) }()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan coordEvent, 16)
	ready := make(chan struct{})
	close(ready)
	wc := &workerConn{}
	wc.link, err = transport.AcceptLink(conn, transport.LinkConfig{Node: 1 << 16},
		func(int) ([]transport.EdgeDecl, transport.Handler, error) {
			return nil, &coordHandler{wc: wc, ready: ready, events: events}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.link.Abort()
	expect := func(want any) any {
		t.Helper()
		select {
		case ev := <-events:
			if reflect.TypeOf(ev.msg) != reflect.TypeOf(want) {
				t.Fatalf("worker sent %#v (closed=%v err=%v), want a %T", ev.msg, ev.closed, ev.err, want)
			}
			return ev.msg
		case <-time.After(10 * time.Second):
			t.Fatalf("no %T from the worker", want)
		}
		return nil
	}
	expect(Register{})

	// No deployment at all.
	send(wc, Continue{Epoch: 5, BaseIter: 64, Iterations: 64})
	if f := expect(Fail{}).(Fail); f.Epoch != 5 {
		t.Errorf("Fail names epoch %d, want 5", f.Epoch)
	}

	// A one-worker deployment of iterations 0..5, then a Continue that
	// skips ahead: refused, and the deployment is gone.
	g, m, err := orchGraph()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := spi.BuildPartitions(g, m, []int{0, 0, 0}, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	send(wc, Prepare{Epoch: 6})
	addr := expect(Ready{}).(Ready).Addr
	spec := specs[0]
	spec.BaseIter, spec.Iterations, spec.Addrs = 0, 6, []string{addr}
	send(wc, Task{Epoch: 6, Spec: spec})
	expect(Done{})
	send(wc, Continue{Epoch: 7, BaseIter: 6, Iterations: 6})
	if d := expect(Done{}).(Done); d.Epoch != 7 || d.Firings["SRC"] != 6 {
		t.Errorf("warm epoch reported %+v, want epoch 7 with 6 firings per actor", d)
	}
	send(wc, Continue{Epoch: 8, BaseIter: 18, Iterations: 6})
	if f := expect(Fail{}).(Fail); f.Epoch != 8 {
		t.Errorf("Fail names epoch %d, want 8", f.Epoch)
	}
	send(wc, Continue{Epoch: 9, BaseIter: 12, Iterations: 6})
	if f := expect(Fail{}).(Fail); f.Epoch != 9 {
		t.Errorf("Fail names epoch %d, want 9: a refused deployment must not serve again", f.Epoch)
	}
	send(wc, Shutdown{})
	wc.link.Close()
	if err := <-workerErr; err != nil {
		t.Errorf("worker: %v", err)
	}
}
