package lpc

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dsp"
	"repro/internal/signal"
	"repro/internal/spi"
	"repro/internal/transport"
)

// TestDistributedResidualChaosRecovers runs the two-process LPC error
// generation system over a fault-injected transport: under every seeded
// schedule that link resumption can repair, the assembled residual must be
// bit-identical to the fault-free single-process run — the paper's
// determinism claim extended across transient network failures.
func TestDistributedResidualChaosRecovers(t *testing.T) {
	const N, nPE, iters = 256, 3, 4
	frame := signal.Speech(N, 77)
	model, err := dsp.LPCAnalyze(frame, 10)
	if err != nil {
		t.Fatal(err)
	}

	// Fault-free single-process reference.
	p := DefaultDeploy(N, nPE)
	p.SampleBytes = 8
	sys, err := ErrorGenSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	var ref []float64
	kernels, err := residualKernels(sys.Graph, p, model, frame, func(a []float64) { ref = a }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spi.Execute(sys.Graph, sys.Mapping, kernels, iters); err != nil {
		t.Fatal(err)
	}
	if len(ref) != N {
		t.Fatalf("reference assembled %d samples", len(ref))
	}

	rc := transport.ReconnectConfig{Attempts: 50, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, Deadline: 20 * time.Second}
	schedules := []struct {
		name string
		cfg  transport.FaultConfig
	}{
		{"drops", transport.FaultConfig{Seed: 301, Drop: 0.03, SkipFrames: 8, MaxFaults: 25}},
		{"severs", transport.FaultConfig{Seed: 302, SeverAt: []int{13, 41}, SkipFrames: 8}},
		{"mixed", transport.FaultConfig{Seed: 303, Drop: 0.02, Corrupt: 0.02, Duplicate: 0.03,
			Delay: 0.05, DelayFor: time.Millisecond, SkipFrames: 8, MaxFaults: 30}},
	}
	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			runChaosSchedule(t, model, frame, ref, sc.cfg, rc, nPE, iters, 0, N, false)
		})
	}
}

// TestDistributedResidualChaosBlocked repeats the chaos determinism check
// with vectorized execution: blocks of 2 and of 3 (the latter leaving a
// partial final block at 4 iterations), with link severs timed to land in
// the middle of a block's slab traffic. Resumption must replay the packed
// slabs and still assemble a bit-identical residual.
func TestDistributedResidualChaosBlocked(t *testing.T) {
	const N, nPE, iters = 256, 3, 4
	frame := signal.Speech(N, 77)
	model, err := dsp.LPCAnalyze(frame, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultDeploy(N, nPE)
	p.SampleBytes = 8
	sys, err := ErrorGenSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	var ref []float64
	kernels, err := residualKernels(sys.Graph, p, model, frame, func(a []float64) { ref = a }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spi.Execute(sys.Graph, sys.Mapping, kernels, iters); err != nil {
		t.Fatal(err)
	}

	rc := transport.ReconnectConfig{Attempts: 50, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, Deadline: 20 * time.Second}
	schedules := []struct {
		name  string
		block int
		cfg   transport.FaultConfig
	}{
		// Blocked runs move far fewer frames, so a late drop could leave no
		// follow-on traffic to expose the sequence gap; concentrate the
		// drops early instead and let the rest of the run reveal them.
		{"drops-b2", 2, transport.FaultConfig{Seed: 311, Drop: 0.5, SkipFrames: 4, MaxFaults: 3}},
		{"sever-mid-block-b2", 2, transport.FaultConfig{Seed: 312, SeverAt: []int{5, 11}, SkipFrames: 4}},
		{"sever-partial-final-b3", 3, transport.FaultConfig{Seed: 313, SeverAt: []int{7}, SkipFrames: 4}},
		{"mixed-b2", 2, transport.FaultConfig{Seed: 314, Drop: 0.02, Corrupt: 0.02, Duplicate: 0.03,
			Delay: 0.05, DelayFor: time.Millisecond, SkipFrames: 4, MaxFaults: 30}},
	}
	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			runChaosSchedule(t, model, frame, ref, sc.cfg, rc, nPE, iters, sc.block, N, false)
		})
	}
}

// TestDistributedResidualResyncChaosRecovers repeats the chaos
// determinism check with wire-level resynchronization active: every UBS
// ack in the error-generation system is provably covered by another sync
// path (spigraph -graph app1 -resync shows all nine suppressed), so under
// drops and mid-block severs the recovered residual must stay
// bit-identical to the fault-free reference while not a single ack for a
// suppressed edge reaches the wire — not even resurrected by the RESUME
// replay.
func TestDistributedResidualResyncChaosRecovers(t *testing.T) {
	const N, nPE, iters = 256, 3, 4
	frame := signal.Speech(N, 77)
	model, err := dsp.LPCAnalyze(frame, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultDeploy(N, nPE)
	p.SampleBytes = 8
	sys, err := ErrorGenSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	var ref []float64
	kernels, err := residualKernels(sys.Graph, p, model, frame, func(a []float64) { ref = a }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spi.Execute(sys.Graph, sys.Mapping, kernels, iters); err != nil {
		t.Fatal(err)
	}

	rc := transport.ReconnectConfig{Attempts: 50, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, Deadline: 20 * time.Second}
	schedules := []struct {
		name  string
		block int
		cfg   transport.FaultConfig
	}{
		{"drops", 0, transport.FaultConfig{Seed: 321, Drop: 0.03, SkipFrames: 8, MaxFaults: 25}},
		{"severs", 0, transport.FaultConfig{Seed: 322, SeverAt: []int{13, 41}, SkipFrames: 8}},
		{"sever-mid-block-b2", 2, transport.FaultConfig{Seed: 323, SeverAt: []int{5, 11}, SkipFrames: 4}},
	}
	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			stats := runChaosSchedule(t, model, frame, ref, sc.cfg, rc, nPE, iters, sc.block, N, true)
			// The receiving half of every cross-node UBS edge folds its
			// swallowed acks into AcksSuppressed and must show zero acks on
			// the wire: coeffs_i and sect_i land on node 1, errs_i on node
			// 0 — 3*nPE suppressed rows in total.
			suppressedRows := 0
			for node, st := range stats {
				for _, e := range st.Edges {
					if e.Stats.AcksSuppressed == 0 {
						continue
					}
					suppressedRows++
					if e.Stats.Acks != 0 || e.Stats.AckBytes != 0 {
						t.Errorf("node %d edge %s: %d acks (%d bytes) reached the wire despite suppression",
							node, e.Name, e.Stats.Acks, e.Stats.AckBytes)
					}
				}
			}
			if want := 3 * nPE; suppressedRows != want {
				t.Errorf("suppression active on %d edge rows, want %d", suppressedRows, want)
			}
		})
	}
}

// runChaosSchedule executes the two-node residual system over a
// fault-injected loopback with the given blocking factor (0 = scalar) and
// compares node 0's assembled residual against the fault-free reference.
// It returns both nodes' statistics so resync schedules can additionally
// assert on ack suppression.
func runChaosSchedule(t *testing.T, model *dsp.LPCModel, frame []float64, ref []float64,
	cfg transport.FaultConfig, rc transport.ReconnectConfig, nPE, iters, block, n int, resync bool) [2]*spi.ExecStats {
	t.Helper()
	ft := transport.NewFaultTransport(transport.NewLoopback(), cfg)
	ln, err := ft.Listen("lpc-chaos0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr(), "unused"}
	var (
		results [2][]float64
		stats   [2]*spi.ExecStats
		errs    [2]error
		wg      sync.WaitGroup
	)
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			opts := spi.DistOptions{
				Transport: ft,
				Node:      node,
				Addrs:     addrs,
				Reconnect: rc,
				Retry:     transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
				Block:     block,
				Resync:    resync,
			}
			if node == 0 {
				opts.Listener = ln
			}
			results[node], stats[node], errs[node] = DistributedResidual(model, frame, nPE, iters, opts)
		}(node)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("LPC chaos run wedged (recovery failed to terminate)")
	}
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v (faults: %+v)", node, err, ft.Stats())
		}
	}
	got := results[0]
	if len(got) != n {
		t.Fatalf("recovered run assembled %d samples, want %d (faults: %+v)", len(got), n, ft.Stats())
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("sample %d: recovered %v, fault-free %v (faults: %+v)", i, got[i], ref[i], ft.Stats())
		}
	}
	return stats
}
