package particle

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/hdl"
	"repro/internal/platform"
	"repro/internal/signal"
	"repro/internal/spi"
)

func TestNewDistributedValidation(t *testing.T) {
	m := testModel()
	if _, err := NewDistributed(m, 100, 0, 1); err == nil {
		t.Error("0 PEs should fail")
	}
	if _, err := NewDistributed(m, 101, 2, 1); err == nil {
		t.Error("uneven split should fail")
	}
	if _, err := NewDistributed(m, 0, 2, 1); err == nil {
		t.Error("0 particles should fail")
	}
}

func TestDistributedTracksCrack(t *testing.T) {
	p := signal.DefaultCrackParams()
	truth := signal.CrackTruth(150, p, 42)
	obs := signal.CrackObservations(truth, p, 43)
	for _, pes := range []int{1, 2, 3} {
		d, err := NewDistributed(Model{P: p}, 150, pes, 44)
		if err != nil {
			t.Fatalf("pes=%d: %v", pes, err)
		}
		ests, err := d.Run(obs)
		if err != nil {
			t.Fatalf("pes=%d: %v", pes, err)
		}
		rmse := RMSE(ests, truth)
		if rmse > p.MeasureNoise {
			t.Errorf("pes=%d RMSE %v worse than observation noise %v", pes, rmse, p.MeasureNoise)
		}
	}
}

func TestDistributedParticleConservation(t *testing.T) {
	p := signal.DefaultCrackParams()
	d, err := NewDistributed(Model{P: p}, 60, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	obs := signal.CrackObservations(signal.CrackTruth(20, p, 1), p, 2)
	if _, err := d.Run(obs); err != nil {
		t.Fatal(err)
	}
	for pe := range d.peState {
		if got := len(d.peState[pe].particles); got != d.PerPE() {
			t.Errorf("PE %d holds %d particles, want %d", pe, got, d.PerPE())
		}
	}
}

func TestDistributedCommunicationPattern(t *testing.T) {
	p := signal.DefaultCrackParams()
	d, err := NewDistributed(Model{P: p}, 100, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	obs := signal.CrackObservations(signal.CrackTruth(10, p, 5), p, 6)
	if _, err := d.Run(obs); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	// Per iteration: 2 sum messages + 2 migration messages (2 PEs).
	if st.Messages != int64(10*4) {
		t.Errorf("messages = %d, want 40", st.Messages)
	}
	// The loop edges bound every edge by eq. 2, so all are BBS: no acks.
	if st.Acks != 0 {
		t.Errorf("acks = %d, want 0 (every edge is BBS)", st.Acks)
	}
}

func TestDistributedSingePEMatchesNoComm(t *testing.T) {
	p := signal.DefaultCrackParams()
	d, _ := NewDistributed(Model{P: p}, 50, 1, 3)
	obs := signal.CrackObservations(signal.CrackTruth(5, p, 5), p, 6)
	if _, err := d.Run(obs); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Messages != 0 {
		t.Errorf("single PE should not communicate, got %d messages", st.Messages)
	}
}

func TestKernelsRejectMalformedTokens(t *testing.T) {
	d, fg, err := newDistributed(testModel(), 100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ks := d.kernels(fg, func(int) float64 { return 0 }, func(int, float64) {})
	e := fg.pe[1]
	if _, err := ks["rs0"](0, map[dataflow.EdgeID][]byte{e.sum[0]: make([]byte, 8)}); err == nil {
		t.Error("rs0 took an 8-byte sum message")
	}
	if _, err := ks["xs0"](0, map[dataflow.EdgeID][]byte{e.mig[0]: make([]byte, 9)}); err == nil {
		t.Error("xs0 took a 9-byte migration")
	}
	if _, err := ks["xs0"](0, map[dataflow.EdgeID][]byte{e.mig[0]: make([]byte, 8)}); err == nil {
		t.Error("xs0 kept a particle too many")
	}
}

func TestFilterSystemBuildsAndRuns(t *testing.T) {
	for _, pes := range []int{1, 2} {
		sys, err := FilterSystem(DefaultDeploy(200, pes), nil)
		if err != nil {
			t.Fatalf("pes=%d: %v", pes, err)
		}
		dep, err := spi.Build(sys)
		if err != nil {
			t.Fatalf("pes=%d build: %v", pes, err)
		}
		st, err := dep.Sim.Run(20)
		if err != nil {
			t.Fatalf("pes=%d run: %v", pes, err)
		}
		if pes == 1 && st.TotalMessages() != 0 {
			t.Errorf("1 PE should not message, got %d", st.TotalMessages())
		}
		if pes == 2 {
			// sums (2) + migrations (2) per iteration.
			if st.Messages[platform.DataMsg] != 4*20 {
				t.Errorf("data messages = %d, want 80", st.Messages[platform.DataMsg])
			}
		}
	}
}

func TestFilterSystemTwoPEFaster(t *testing.T) {
	run := func(pes int) platform.Time {
		sys, err := FilterSystem(DefaultDeploy(300, pes), nil)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := spi.Build(sys)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dep.Sim.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		return st.Finish
	}
	t1, t2 := run(1), run(2)
	if t2 >= t1 {
		t.Errorf("2 PEs (%d) not faster than 1 (%d)", t2, t1)
	}
	// Figure 7 shape: near-2x at large N but below 2x (communication).
	speedup := float64(t1) / float64(t2)
	if speedup > 2.0 {
		t.Errorf("speedup %v > 2 is implausible", speedup)
	}
	if speedup < 1.3 {
		t.Errorf("speedup %v too small for compute-dominated filter", speedup)
	}
}

func TestFilterSystemGrowsWithParticles(t *testing.T) {
	run := func(n int) platform.Time {
		sys, _ := FilterSystem(DefaultDeploy(n, 2), nil)
		dep, err := spi.Build(sys)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dep.Sim.Run(5)
		if err != nil {
			t.Fatal(err)
		}
		return st.Finish
	}
	if !(run(50) < run(150) && run(150) < run(300)) {
		t.Error("time should grow with particle count (figure 7 x-axis)")
	}
}

func TestDeployValidate(t *testing.T) {
	bad := DeployParams{Particles: 100, PEs: 3}
	if bad.Validate() == nil {
		t.Error("non-divisible particles should fail")
	}
	if _, err := FilterSystem(bad, nil); err == nil {
		t.Error("FilterSystem should reject bad params")
	}
	if _, err := HardwareModel(bad); err == nil {
		t.Error("HardwareModel should reject bad params")
	}
}

func TestHardwareModelTable2Shape(t *testing.T) {
	top, err := HardwareModel(DefaultDeploy(300, 2))
	if err != nil {
		t.Fatal(err)
	}
	system := top.Total()
	lib := top.TotalOf("spi_")
	dev := hdl.VirtexSX35()
	sysPct := system.PercentOf(dev)
	// Table 2 shape: the filter consumes a large fraction of the device
	// (paper: 65% slices) — only 2 PEs fit.
	if sysPct.Slices < 25 {
		t.Errorf("system uses %.1f%% of device slices; expect heavy (paper: 65%%)", sysPct.Slices)
	}
	if sysPct.Slices > 100 {
		t.Errorf("system over capacity: %.1f%%", sysPct.Slices)
	}
	// ...and the SPI library is a tiny fraction of the system
	// (paper: 0.2% slices, ~11% BRAMs).
	libPct := lib.PercentOf(system)
	if libPct.Slices > 5 {
		t.Errorf("SPI slice share %.2f%%, expect tiny (paper: 0.2%%)", libPct.Slices)
	}
	if libPct.BRAMs > 30 {
		t.Errorf("SPI BRAM share %.1f%%, expect small (paper: 11.43%%)", libPct.BRAMs)
	}
	if system.DSP48s == 0 {
		t.Error("filter datapath should use DSP48s")
	}
	if lib.DSP48s != 0 {
		t.Error("SPI library should use no DSP48s (paper: 0%)")
	}
}

func TestDistributedAdaptiveSavesMigrations(t *testing.T) {
	p := signal.DefaultCrackParams()
	truth := signal.CrackTruth(150, p, 42)
	obs := signal.CrackObservations(truth, p, 43)

	always, _ := NewDistributed(Model{P: p}, 200, 2, 44)
	if _, err := always.Run(obs); err != nil {
		t.Fatal(err)
	}
	adaptive, _ := NewDistributed(Model{P: p}, 200, 2, 44)
	adaptive.SetResampleThreshold(0.9)
	ests, err := adaptive.Run(obs)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Resamplings() >= always.Resamplings() {
		t.Errorf("adaptive resampled %d rounds, always %d — no savings",
			adaptive.Resamplings(), always.Resamplings())
	}
	if adaptive.Resamplings() == 0 {
		t.Error("adaptive filter never resampled")
	}
	// A skipped migration is a header-only SPI_dynamic token: as many
	// messages, fewer payload bytes.
	if a, b := adaptive.Stats(), always.Stats(); a.Messages != b.Messages || a.PayloadBytes >= b.PayloadBytes {
		t.Errorf("adaptive %d messages and %d payload bytes, always %d and %d: want equal messages, fewer bytes",
			a.Messages, a.PayloadBytes, b.Messages, b.PayloadBytes)
	}
	// Tracking quality comparable to observation noise.
	if rmse := RMSE(ests, truth); rmse > 2*p.MeasureNoise {
		t.Errorf("adaptive RMSE %v too high", rmse)
	}
}

func TestDistributedAlwaysResampleCountsRounds(t *testing.T) {
	p := signal.DefaultCrackParams()
	obs := signal.CrackObservations(signal.CrackTruth(20, p, 1), p, 2)
	d, _ := NewDistributed(Model{P: p}, 60, 3, 7)
	if _, err := d.Run(obs); err != nil {
		t.Fatal(err)
	}
	if d.Resamplings() != 20 {
		t.Errorf("resamplings = %d, want 20 (every step)", d.Resamplings())
	}
}
