package hdl_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/hdl"
	"repro/internal/sched"
	"repro/internal/spi"
)

// library derives the SPI library of processor 1, datapath "pe0", in a
// system whose src and snk run on processor 0 and w on processor 1.
func library(t *testing.T, g *dataflow.Graph, src, w, snk dataflow.ActorID) *hdl.Module {
	t.Helper()
	m := &sched.Mapping{NumProcs: 2, Proc: make([]sched.Processor, g.NumActors()),
		Order: [][]dataflow.ActorID{{src, snk}, {w}}}
	m.Proc[w] = 1
	top := hdl.NewModule("top")
	if err := hdl.AddSPILibraries(top, &spi.System{Graph: g, Mapping: m}, []*hdl.Module{nil, hdl.NewModule("pe0")}); err != nil {
		t.Fatal(err)
	}
	libs := top.FindAll("spi_lib.")
	if len(libs) != 1 {
		t.Fatalf("%d SPI libraries, want one for the one datapath", len(libs))
	}
	return libs[0]
}

func TestSPILibraryBundle(t *testing.T) {
	// A dynamic 1 KiB frame in and a static 64-byte error block out, with
	// no path back: both edges UBS.
	g := dataflow.New("bundle")
	src, w, snk := g.AddActor("src", 10), g.AddActor("w", 10), g.AddActor("snk", 10)
	g.AddEdge("frame", src, w, 1024, 1024, dataflow.EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 1})
	g.AddEdge("errs", w, snk, 64, 64, dataflow.EdgeSpec{TokenBytes: 1})
	lib := library(t, g, src, w, snk)
	if !strings.HasPrefix(lib.Name(), "spi_lib.") {
		t.Errorf("library name %q must carry the spi_ prefix", lib.Name())
	}
	total := lib.Total()
	if total.IsZero() {
		t.Error("library has zero area")
	}
	if len(lib.FindAll("pe0.rx_engine")) == 0 {
		t.Error("shared receive engine missing")
	}
	if len(lib.FindAll("pe0.tx_engine")) == 0 {
		t.Error("shared send engine missing")
	}
	if len(lib.FindAll("pe0.rx.ackgen")) == 0 {
		t.Error("a received UBS edge needs the acknowledgement generator")
	}
	if len(lib.FindAll("pe0.buf.frame")) == 0 || len(lib.FindAll("pe0.buf.errs")) == 0 {
		t.Error("per-edge staging buffers missing")
	}
	// The 1 KiB dynamic frame buffer lands in BRAM.
	if total.BRAMs == 0 {
		t.Error("large buffer should use BRAM")
	}
}

func TestSPILibrarySharesEngines(t *testing.T) {
	// Tripling the edge count must not triple the library: engines are
	// shared, only staging buffers replicate.
	slices := func(edges int) int {
		g := dataflow.New("share")
		src, w, snk := g.AddActor("src", 10), g.AddActor("w", 10), g.AddActor("snk", 10)
		for i := 0; i < edges; i++ {
			g.AddEdge(fmt.Sprintf("e%d", i), src, w, 64, 64, dataflow.EdgeSpec{ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 1})
		}
		return library(t, g, src, w, snk).Total().Slices
	}
	if small, big := slices(1), slices(3); big >= 3*small {
		t.Errorf("library does not share engines: 1 edge = %d slices, 3 edges = %d", small, big)
	}
}
