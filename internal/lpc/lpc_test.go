package lpc

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/hdl"
	"repro/internal/platform"
	"repro/internal/signal"
	"repro/internal/spi"
)

func TestParamsValidate(t *testing.T) {
	cases := []Params{
		{FrameSize: 0, Order: 10, ErrorBits: 8, CoeffBits: 8},
		{FrameSize: 100, Order: 0, ErrorBits: 8, CoeffBits: 8},
		{FrameSize: 100, Order: 100, ErrorBits: 8, CoeffBits: 8},
		{FrameSize: 100, Order: 10, ErrorBits: 1, CoeffBits: 8},
	}
	for _, p := range cases {
		if p.Validate() == nil {
			t.Errorf("%+v should be invalid", p)
		}
	}
	if DefaultParams().Validate() != nil {
		t.Error("defaults must validate")
	}
}

func TestCompressDecompressFrame(t *testing.T) {
	c, err := NewCodec(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	x := signal.Speech(256, 5)
	f, err := c.CompressFrame(x)
	if err != nil {
		t.Fatal(err)
	}
	y, err := c.DecompressFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != len(x) {
		t.Fatalf("decoded %d samples, want %d", len(y), len(x))
	}
	var sig, noise float64
	for i := range x {
		sig += x[i] * x[i]
		d := x[i] - y[i]
		noise += d * d
	}
	snr := 10 * math.Log10(sig/noise)
	if snr < 20 {
		t.Errorf("frame SNR = %v dB, want >= 20", snr)
	}
}

func TestCompressFrameSizeValidation(t *testing.T) {
	c, _ := NewCodec(DefaultParams())
	if _, err := c.CompressFrame(make([]float64, 100)); err == nil {
		t.Error("wrong frame size should fail")
	}
}

// compress is Compress, failing the test on an error.
func compress(t *testing.T, c *Codec, x []float64) []*Frame {
	t.Helper()
	frames, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func TestAnalyzeWholeSignal(t *testing.T) {
	c, _ := NewCodec(DefaultParams())
	x := signal.Speech(256*8, 7)
	rep, err := c.Analyze(x, compress(t, c, x))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 8 {
		t.Errorf("frames = %d, want 8", rep.Frames)
	}
	if rep.Ratio <= 1.0 {
		t.Errorf("compression ratio %v, want > 1 (should beat 16-bit PCM)", rep.Ratio)
	}
	if rep.SNRdB < 20 {
		t.Errorf("SNR = %v dB, want >= 20", rep.SNRdB)
	}
}

func TestCompressDropsPartialFrames(t *testing.T) {
	c, _ := NewCodec(DefaultParams())
	frames, err := c.Compress(signal.Speech(256*2+100, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Errorf("frames = %d, want 2", len(frames))
	}
}

// oneNode runs the n-PE deployment in this process: DistributedResidual
// with one address.
func oneNode(model *dsp.LPCModel, frame []float64, nPE int) ([]float64, *spi.ExecStats, error) {
	return DistributedResidual(model, frame, nPE, 1, spi.DistOptions{Addrs: []string{"in-process"}})
}

func TestParallelResidualMatchesSerial(t *testing.T) {
	x := signal.Speech(400, 9)
	for _, order := range []int{10, 16} {
		model, err := dsp.LPCAnalyze(x, order)
		if err != nil {
			t.Fatal(err)
		}
		want := model.Residual(x)
		for _, n := range []int{1, 2, 3, 4, 7} {
			got, stats, err := oneNode(model, x, n)
			if err != nil {
				t.Fatalf("order=%d n=%d: %v", order, n, err)
			}
			if len(got) != len(want) {
				t.Fatalf("order=%d n=%d: %d samples, want %d", order, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("order=%d n=%d sample %d: %v vs %v", order, n, i, got[i], want[i])
				}
			}
			if stats.SPI.Messages != int64(3*n) {
				t.Errorf("order=%d n=%d messages = %d, want %d", order, n, stats.SPI.Messages, 3*n)
			}
			if pes := len(stats.ActorFirings) - 2; pes != n {
				t.Errorf("order=%d n=%d: %d PEs fired", order, n, pes)
			}
		}
	}
}

func TestParallelResidualValidation(t *testing.T) {
	model := &dsp.LPCModel{Coeffs: []float64{0.5}}
	for _, n := range []int{0, -1} {
		if _, _, err := oneNode(model, []float64{1, 2}, n); err == nil {
			t.Errorf("nPE=%d should fail", n)
		}
	}
	// More PEs than samples clamps rather than failing.
	got, stats, err := oneNode(model, []float64{1, 2}, 10)
	if err != nil || len(got) != 2 {
		t.Errorf("clamp: %v %v", got, err)
	} else if pes := len(stats.ActorFirings) - 2; pes != 2 {
		t.Errorf("clamp: %d PEs fired, want 2", pes)
	}
	// An empty predictor deploys: its residual is the frame.
	got, _, err = oneNode(&dsp.LPCModel{}, []float64{1, 2, 3}, 2)
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("empty predictor: %v %v", got, err)
	}
}

func TestAppendFloatsRoundtrip(t *testing.T) {
	in := []float64{0, 1.5, -2.25, math.Pi}
	// Both codecs append: what dst already holds stays.
	enc := appendFloats([]byte{0xAA}, in)
	if len(enc) != 1+8*len(in) || enc[0] != 0xAA {
		t.Fatalf("encoded %d bytes, first %#x", len(enc), enc[0])
	}
	out, err := appendDecoded([]float64{42}, enc[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1+len(in) || out[0] != 42 {
		t.Fatalf("decoded %v", out)
	}
	for i := range in {
		if in[i] != out[1+i] {
			t.Fatalf("roundtrip: %v vs %v", in, out[1:])
		}
	}
	if _, err := appendDecoded(nil, make([]byte, 7)); err == nil {
		t.Error("non-multiple length should fail")
	}
}

func TestSectionEncoding(t *testing.T) {
	hist, samples, err := splitSection(appendSection(nil, 3, []float64{1, 2, 3, 4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	if hist != 3 || len(samples) != 5*8 {
		t.Errorf("hist=%d, %d sample bytes", hist, len(samples))
	}
	if _, _, err := splitSection([]byte{1}); err == nil {
		t.Error("short section should fail")
	}
	if _, _, err := splitSection(appendSection(nil, 9, []float64{1})); err == nil {
		t.Error("hist > samples should fail")
	}
	// A ragged sample payload is caught where it is decoded.
	if _, err := newErrorGen(nil, 1, 1, 1).fireSection(appendFloats(nil, []float64{.5}), append(appendSection(nil, 0, []float64{1}), 0)); err == nil {
		t.Error("section with a trailing byte should fail")
	}
}

// TestScratchCutsBoundedBuffers: buffers cut from a scratch are empty, hold
// exactly what was asked for and cannot grow into their neighbours; a nil or
// exhausted scratch allocates instead; a released one is cut from the start
// again.
func TestScratchCutsBoundedBuffers(t *testing.T) {
	sc := getScratch(8, 16)
	a, b := sc.floats(3), sc.floats(5)
	x, y := sc.bytes(10), sc.bytes(6)
	if len(a) != 0 || cap(a) != 3 || cap(b) != 5 || len(x) != 0 || cap(x) != 10 || cap(y) != 6 {
		t.Fatalf("caps %d %d %d %d", cap(a), cap(b), cap(x), cap(y))
	}
	b, y = append(b, 1), append(y, 1)
	a = append(a, 2, 2, 2, 2) // outgrows its cut: must move, not overwrite b
	x = append(x, make([]byte, 11)...)
	if b[0] != 1 || y[0] != 1 {
		t.Errorf("a buffer grew into its neighbour: %v %v", b, y)
	}
	if extra := sc.floats(1); cap(extra) != 1 {
		t.Errorf("exhausted scratch: cap %d", cap(extra))
	}
	if buf := (*scratch)(nil).bytes(4); cap(buf) != 4 {
		t.Errorf("nil scratch: cap %d", cap(buf))
	}
	sc.release()
	if sc.nf != 0 || sc.nb != 0 {
		t.Errorf("released scratch still cut: %d floats, %d bytes", sc.nf, sc.nb)
	}
}

func TestErrorGenSystemBuildsAndRuns(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		sys, err := ErrorGenSystem(DefaultDeploy(256, n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		dep, err := spi.Build(sys)
		if err != nil {
			t.Fatalf("n=%d build: %v", n, err)
		}
		st, err := dep.Sim.Run(10)
		if err != nil {
			t.Fatalf("n=%d run: %v", n, err)
		}
		// 3 messages per worker per iteration.
		if st.Messages[platform.DataMsg] != int64(3*n*10) {
			t.Errorf("n=%d data messages = %d, want %d", n, st.Messages[platform.DataMsg], 3*n*10)
		}
		// Dynamic edges without feedback land on UBS: acks present.
		if st.Messages[platform.AckMsg] == 0 {
			t.Errorf("n=%d expected UBS ack traffic", n)
		}
	}
}

func TestErrorGenMorePEsFaster(t *testing.T) {
	run := func(n int) platform.Time {
		sys, err := ErrorGenSystem(DefaultDeploy(512, n))
		if err != nil {
			t.Fatal(err)
		}
		dep, err := spi.Build(sys)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dep.Sim.Run(20)
		if err != nil {
			t.Fatal(err)
		}
		return st.Finish
	}
	t1, t2, t4 := run(1), run(2), run(4)
	if !(t4 < t2 && t2 < t1) {
		t.Errorf("no speedup: t1=%d t2=%d t4=%d", t1, t2, t4)
	}
	// Figure 6 shape: diminishing returns — 4 PEs less than 4x faster.
	if float64(t1)/float64(t4) >= 4.0 {
		t.Errorf("superlinear speedup %v is implausible with comm overhead", float64(t1)/float64(t4))
	}
}

func TestErrorGenLargerFramesSlower(t *testing.T) {
	run := func(N int) platform.Time {
		sys, _ := ErrorGenSystem(DefaultDeploy(N, 2))
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
	if !(run(64) < run(256) && run(256) < run(512)) {
		t.Error("execution time should grow with sample size (figure 6 x-axis)")
	}
}

func TestDeployValidate(t *testing.T) {
	bad := DeployParams{SampleSize: 0, Order: 10, PEs: 1, SampleBytes: 2, MACCyclesPerTap: 2}
	if bad.Validate() == nil {
		t.Error("zero sample size should fail")
	}
	if _, err := ErrorGenSystem(bad); err == nil {
		t.Error("ErrorGenSystem should reject bad params")
	}
	if _, err := HardwareModel(bad); err == nil {
		t.Error("HardwareModel should reject bad params")
	}
}

func TestHardwareModelTable1Shape(t *testing.T) {
	top, err := HardwareModel(DefaultDeploy(512, 4))
	if err != nil {
		t.Fatal(err)
	}
	system := top.Total()
	lib := top.TotalOf("spi_")
	if lib.IsZero() {
		t.Fatal("SPI library area missing")
	}
	// Table 1 shape: the full system is a small fraction of the device...
	dev := hdl.VirtexSX35()
	sysPct := system.PercentOf(dev)
	if sysPct.Slices > 15 {
		t.Errorf("system uses %.1f%% of device slices, expect small (paper: 2.63%%)", sysPct.Slices)
	}
	// ...and the SPI library is a modest share of the system, with a
	// large share of its BRAMs (paper: 11.88% slices, 50% BRAMs).
	libPct := lib.PercentOf(system)
	if libPct.Slices <= 2 || libPct.Slices >= 50 {
		t.Errorf("SPI slice share %.1f%%, expect modest (paper: 11.88%%)", libPct.Slices)
	}
	if libPct.BRAMs < 25 || libPct.BRAMs > 75 {
		t.Errorf("SPI BRAM share %.1f%%, expect near half (paper: 50%%)", libPct.BRAMs)
	}
}
