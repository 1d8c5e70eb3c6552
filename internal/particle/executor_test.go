package particle

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/dataflow"
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

// TestDistributedOverCarriers runs the filter's kernels as a two-node
// distributed execution — PE 0 on node 0, the other PEs on node 1, so every
// sum and migration edge of PE 0 crosses the link — and checks every
// estimate bit for bit against the in-process filter.
func TestDistributedOverCarriers(t *testing.T) {
	const n, pes, steps, seed = 150, 3, 200, 5
	p := signal.DefaultCrackParams()
	obs := signal.CrackObservations(signal.CrackTruth(steps, p, 42), p, 43)
	for _, frac := range []float64{0, 0.9} {
		ref, err := NewDistributed(Model{P: p}, n, pes, seed)
		if err != nil {
			t.Fatal(err)
		}
		if frac > 0 {
			ref.SetResampleThreshold(frac)
		}
		want, err := ref.Run(obs)
		if err != nil {
			t.Fatal(err)
		}
		for _, carrier := range []string{"loopback", "tcp"} {
			var tr transport.Transport = transport.NewLoopback()
			addr := "pf-node0"
			if carrier == "tcp" {
				tr, addr = &transport.TCP{}, "127.0.0.1:0"
			}
			ln, err := tr.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, steps)
			var resamplings int64
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for node := range 2 {
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
					ks := d.kernels(fg, func(iter int) float64 { return obs[iter] }, func(iter int, est float64) { got[iter] = est })
					opts := spi.DistOptions{Transport: tr, Node: node, Addrs: []string{ln.Addr(), "unused"}, NodeOf: []int{0, 1, 1}}
					if node == 0 {
						opts.Listener = ln
					}
					_, errs[node] = spi.ExecuteDistributed(fg.sys.Graph, fg.sys.Mapping, byActorID(fg.sys.Graph, ks), steps, opts)
					if node == 0 {
						resamplings = d.Resamplings()
					}
				}()
			}
			wg.Wait()
			for node, err := range errs {
				if err != nil {
					t.Fatalf("frac %v over %s: node %d: %v", frac, carrier, node, err)
				}
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("frac %v over %s: step %d estimate %v, in-process %v", frac, carrier, i, got[i], want[i])
				}
			}
			if resamplings != ref.Resamplings() {
				t.Errorf("frac %v over %s: %d resamplings, in-process %d", frac, carrier, resamplings, ref.Resamplings())
			}
		}
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
// of a 2-PE, 256-particle filter (pf_chan's shape): the standing run's
// result maps, the quota and the migration plan. Measured 27 allocations
// and 1351 B; the hand-written protocol it replaced cost 32.1 and 5255 B.
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
	alloctest.Check(t, "2 PEs, 256 particles: per step", perStep, alloctest.Allocs{N: 27, Bytes: 1351})
}

func byActorID(g *dataflow.Graph, ks map[string]spi.Kernel) map[dataflow.ActorID]spi.Kernel {
	out := make(map[dataflow.ActorID]spi.Kernel, len(ks))
	for _, a := range g.Actors() {
		out[a] = ks[g.Actor(a).Name]
	}
	return out
}
