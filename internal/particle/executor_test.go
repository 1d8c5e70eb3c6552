package particle

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/signal"
	"repro/internal/spi"
	"repro/internal/transport"
)

// TestDistributedPinnedEstimates pins the filter's estimates to those of
// the hand-written SPI protocol it replaced (one goroutine per PE, a
// barrier per step): the digests below were computed with that protocol,
// so the executor must reproduce its every bit.
func TestDistributedPinnedEstimates(t *testing.T) {
	p := signal.DefaultCrackParams()
	obs := signal.CrackObservations(signal.CrackTruth(3000, p, 42), p, 43)
	for _, c := range []struct {
		n, pes      int
		frac        float64
		seed        uint64
		digest      uint64
		resamplings int64
	}{
		{256, 2, 0, 1, 0x3ca884d3fee817c8, 3000},
		{256, 2, 0, 44, 0x70a35d1a0b758491, 3000},
		{256, 2, 0, 9, 0x895b521d921c91a7, 3000},
		{150, 3, 0, 1, 0xf7ae8d2ae0200daf, 3000},
		{150, 3, 0, 44, 0xb092a5564e139cac, 3000},
		{150, 3, 0, 9, 0x403a55ce2c63f8b0, 3000},
		{200, 1, 0, 1, 0xc28e6a12784a0aab, 3000},
		{200, 1, 0, 44, 0x072f95256f99a92b, 3000},
		{200, 1, 0, 9, 0xb13132d308bb34dd, 3000},
		{400, 4, 0, 1, 0x44c366def834a6fc, 3000},
		{400, 4, 0, 44, 0x049bd9ac5bd48925, 3000},
		{400, 4, 0, 9, 0xa27451a5b5a9a011, 3000},
		{200, 2, 0.9, 1, 0xb12bd18197f46894, 443},
		{200, 2, 0.9, 44, 0xfd1709d088741446, 463},
		{200, 2, 0.9, 9, 0xacbaf04b5efb6c9d, 457},
		{300, 3, 0.5, 1, 0x5b168b8b49e6aef9, 93},
		{300, 3, 0.5, 44, 0x94381732486e47cb, 93},
		{300, 3, 0.5, 9, 0x7d299094cdea9362, 91},
	} {
		d, err := NewDistributed(Model{P: p}, c.n, c.pes, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if c.frac > 0 {
			d.SetResampleThreshold(c.frac)
		}
		var h uint64
		for i, y := range obs {
			est, err := d.Step(y)
			if err != nil {
				t.Fatalf("N=%d pes=%d frac=%v seed=%d: step %d: %v", c.n, c.pes, c.frac, c.seed, i, err)
			}
			h = h*1000003 ^ math.Float64bits(est)
		}
		if h != c.digest || d.Resamplings() != c.resamplings {
			t.Errorf("N=%d pes=%d frac=%v seed=%d: digest %016x after %d resamplings, want %016x after %d",
				c.n, c.pes, c.frac, c.seed, h, d.Resamplings(), c.digest, c.resamplings)
		}
	}
}

// splitFilter runs the filter's kernels as a two-node distributed
// execution over tr, node 0 listening at addr — PE 0 on node 0, the other
// PEs on node 1, so every sum and migration edge of PE 0 crosses the link —
// and checks every estimate and the resampling count bit for bit against
// the in-process filter. Every edge is BBS, so neither node may send an SPI
// acknowledgement: it checks that no ack is counted and no ACK frame crosses
// the link, and returns each node's metrics.
func splitFilter(t *testing.T, tr transport.Transport, addr string, frac float64, tune func(*spi.DistOptions)) [2]*obs.Registry {
	t.Helper()
	const n, pes, steps, seed = 150, 3, 200, 5
	p := signal.DefaultCrackParams()
	ys := signal.CrackObservations(signal.CrackTruth(steps, p, 42), p, 43)
	ref, err := NewDistributed(Model{P: p}, n, pes, seed)
	if err != nil {
		t.Fatal(err)
	}
	if frac > 0 {
		ref.SetResampleThreshold(frac)
	}
	want, err := ref.Run(ys)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, steps)
	var resamplings int64
	var errs [2]error
	var stats [2]*spi.ExecStats
	var regs [2]*obs.Registry
	var wg sync.WaitGroup
	for node := range 2 {
		o := obs.New()
		regs[node] = o.Metrics
		opts := spi.DistOptions{Transport: tr, Node: node, Addrs: []string{ln.Addr(), "unused"}, NodeOf: []int{0, 1, 1}, Obs: o}
		if node == 0 {
			opts.Listener = ln
		}
		tune(&opts)
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, fg, err := newDistributed(Model{P: p}, n, pes, seed)
			if err != nil {
				errs[node] = err
				return
			}
			if frac > 0 {
				d.SetResampleThreshold(frac)
			}
			ks := d.kernels(fg, func(iter int) float64 { return ys[iter] }, func(iter int, est float64) { got[iter] = est })
			stats[node], errs[node] = spi.ExecuteDistributed(fg.sys.Graph, fg.sys.Mapping, byActorID(fg.sys.Graph, ks), steps, opts)
			if node == 0 {
				resamplings = d.Resamplings()
			}
		}()
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("step %d estimate %v, in-process %v", i, got[i], want[i])
		}
	}
	if resamplings != ref.Resamplings() {
		t.Errorf("%d resamplings, in-process %d", resamplings, ref.Resamplings())
	}
	for node, st := range stats {
		if frames := regs[node].Sum("transport_link_acks_sent_total"); st.SPI.Messages == 0 || st.SPI.Acks != 0 || frames != 0 {
			t.Errorf("node %d sent %d messages, %d acks, %d ACK frames; want some, 0, 0", node, st.SPI.Messages, st.SPI.Acks, frames)
		}
	}
	return regs
}

// TestDistributedOverCarriers runs the split filter (splitFilter) over
// loopback and TCP, with and without resampling.
func TestDistributedOverCarriers(t *testing.T) {
	for _, frac := range []float64{0, 0.9} {
		for _, carrier := range []string{"loopback", "tcp"} {
			t.Run(fmt.Sprintf("frac=%v/%s", frac, carrier), func(t *testing.T) {
				var tr transport.Transport = transport.NewLoopback()
				addr := "pf-node0"
				if carrier == "tcp" {
					tr, addr = &transport.TCP{}, "127.0.0.1:0"
				}
				splitFilter(t, tr, addr, frac, func(*spi.DistOptions) {})
			})
		}
	}
}

// TestDistributedFilterChaos runs the split filter over a seeded fault
// schedule that severs every connection twice and drops frames: link
// resumption repairs it, and the estimates stay bit-identical with no SPI
// acknowledgement sent — no BBS edge of the filter needs one across a
// RESUME either.
func TestDistributedFilterChaos(t *testing.T) {
	ft := transport.NewFaultTransport(transport.NewLoopback(), transport.FaultConfig{
		Seed: 17, SeverAt: []int{40, 150}, Drop: 0.02, SkipFrames: 6, MaxFaults: 20})
	regs := splitFilter(t, ft, "pf-chaos0", 0.9, func(o *spi.DistOptions) {
		o.Reconnect = transport.ReconnectConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Deadline: 20 * time.Second}
		o.Retry = transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	})
	if resumes := regs[0].Sum("transport_link_resumes_total") + regs[1].Sum("transport_link_resumes_total"); resumes == 0 {
		t.Fatal("no resumes happened; the fault schedule never fired")
	}
	if st := ft.Stats(); st.Severs == 0 || st.Drops == 0 {
		t.Fatalf("fault schedule injected %+v, want severs and drops", st)
	}
}

// TestDistributedRefusesBlockedRun: the loop edges carry one iteration of
// delay, so a block of two iterations would wait on itself; the planner
// refuses it before anything runs.
func TestDistributedRefusesBlockedRun(t *testing.T) {
	d, fg, err := newDistributed(testModel(), 100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ks := d.kernels(fg, func(int) float64 { return 0 }, func(int, float64) {})
	_, err = spi.ExecuteDistributed(fg.sys.Graph, fg.sys.Mapping, byActorID(fg.sys.Graph, ks), 4,
		spi.DistOptions{Addrs: []string{"local"}, NodeOf: []int{0, 0}, Block: 2})
	if err == nil || !strings.Contains(err.Error(), "block 2 deadlocks") {
		t.Fatalf("block 2 run: got %v, want the planner's deadlock error", err)
	}
}

// TestAllocsDistributedStep pins the steady-state allocations of one Step
// of a 2-PE, 256-particle filter (pf_chan's shape): the goroutine that fires
// PE 0, and nothing else. The hand-written protocol the executor replaced
// cost 32.1 allocations and 5255 B; the executor 27 and 1351 B while a Run
// built its checkpoint, the local queues bought a slot per token and rs
// allocated its quota and migration plan, and 1 and 57 B since.
func TestAllocsDistributedStep(t *testing.T) {
	p := signal.DefaultCrackParams()
	obs := signal.CrackObservations(signal.CrackTruth(400, p, 42), p, 43)
	perStep, _ := alloctest.SteadyAndOpen(100, func(n int) {
		d, err := NewDistributed(Model{P: p}, 256, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(obs[:n]); err != nil {
			t.Fatal(err)
		}
	})
	alloctest.Check(t, "2 PEs, 256 particles: per step", perStep, alloctest.Allocs{N: 1, Bytes: 57})
}

func byActorID(g *dataflow.Graph, ks map[string]spi.Kernel) map[dataflow.ActorID]spi.Kernel {
	out := make(map[dataflow.ActorID]spi.Kernel, len(ks))
	for _, a := range g.Actors() {
		out[a] = ks[g.Actor(a).Name]
	}
	return out
}
