package lpc

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/signal"
	"repro/internal/spi"
)

// TestErrorGenSystemFunctional runs the actor-D deployment graph with REAL
// kernels under spi.Execute: the I/O interface scatters coefficients and
// overlapping frame sections, hardware-PE kernels compute residual ranges,
// and the gather reassembles the frame — then every frame is checked bit for
// bit against the serial residual. This ties the deployment graph (used for
// the figure-6 timing) to actual computation.
func TestErrorGenSystemFunctional(t *testing.T) {
	const N, iters = 256, 3
	frame := signal.Speech(N, 77)
	model, err := dsp.LPCAnalyze(frame, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := model.Residual(frame)

	for _, n := range []int{1, 2, 4} {
		p := DefaultDeploy(N, n)
		p.SampleBytes = 8 // the functional kernels move float64 samples
		sys, err := ErrorGenSystem(p)
		if err != nil {
			t.Fatal(err)
		}
		// io_recv hands over its assembly buffer: keep a copy of each frame.
		var results [][]float64
		kernels, err := residualKernels(sys.Graph, p, model, frame, func(a []float64) {
			results = append(results, append([]float64(nil), a...))
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := spi.Execute(sys.Graph, sys.Mapping, kernels, iters)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(results) != iters {
			t.Fatalf("n=%d: %d gathered frames", n, len(results))
		}
		for it, got := range results {
			if len(got) != N {
				t.Fatalf("n=%d frame %d: assembled %d samples", n, it, len(got))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d frame %d sample %d: %v vs %v", n, it, i, got[i], want[i])
				}
			}
		}
		// 3 messages per PE per iteration over the SPI runtime.
		if st.SPI.Messages != int64(3*n*iters) {
			t.Errorf("n=%d: SPI messages = %d, want %d", n, st.SPI.Messages, 3*n*iters)
		}
	}
}

// TestResidualKernelsNameMissingEdge: an edge the kernels need is resolved
// when they are built, so a graph without it is refused then, by name.
func TestResidualKernelsNameMissingEdge(t *testing.T) {
	p := DefaultDeploy(64, 2)
	p.SampleBytes = 8
	narrow := p
	narrow.PEs = 1
	sys, err := ErrorGenSystem(narrow)
	if err != nil {
		t.Fatal(err)
	}
	model := &dsp.LPCModel{Coeffs: make([]float64, p.Order)}
	_, err = residualKernels(sys.Graph, p, model, make([]float64, 64), func([]float64) {}, nil)
	if err == nil || err.Error() != "lpc: graph has no edge coeffs1" {
		t.Fatalf("err = %v, want the missing edge coeffs1 named", err)
	}
}
