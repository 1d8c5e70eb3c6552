package experiments

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/particle"
	"repro/internal/sched"
	"repro/internal/spi"
)

func cellFloat(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tbl.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("cell [%d][%d] = %q: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

func TestTableString(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tbl.AddRow("1", "2")
	s := tbl.String()
	for _, want := range []string{"== T ==", "a", "bb", "1", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	tbl, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(Fig6SampleSizes) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Time grows with sample size for every PE count.
	for col := 1; col <= len(Fig6PEs); col++ {
		for row := 1; row < len(tbl.Rows); row++ {
			if cellFloat(t, tbl, row, col) <= cellFloat(t, tbl, row-1, col) {
				t.Errorf("col %d not increasing at row %d:\n%s", col, row, tbl)
			}
		}
	}
	// More PEs are faster at the largest size.
	last := len(tbl.Rows) - 1
	for col := 2; col <= len(Fig6PEs); col++ {
		if cellFloat(t, tbl, last, col) >= cellFloat(t, tbl, last, col-1) {
			t.Errorf("n=%d not faster than n=%d at N=512:\n%s", col, col-1, tbl)
		}
	}
	// Diminishing returns: speedup(4) < 4.
	if s := cellFloat(t, tbl, last, 1) / cellFloat(t, tbl, last, 4); s >= 4 {
		t.Errorf("4-PE speedup %v >= 4", s)
	}
}

func TestFig7Shape(t *testing.T) {
	tbl, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(Fig7Particles) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	last := len(tbl.Rows) - 1
	// n=2 faster than n=1 everywhere; both grow with N.
	for row := range tbl.Rows {
		if cellFloat(t, tbl, row, 2) >= cellFloat(t, tbl, row, 1) {
			t.Errorf("2 PEs not faster at row %d:\n%s", row, tbl)
		}
	}
	for row := 1; row < len(tbl.Rows); row++ {
		if cellFloat(t, tbl, row, 1) <= cellFloat(t, tbl, row-1, 1) {
			t.Errorf("n=1 time not increasing at row %d", row)
		}
	}
	// Speedup below 2 (communication overhead) but above 1.3 at large N.
	s := cellFloat(t, tbl, last, 1) / cellFloat(t, tbl, last, 2)
	if s >= 2 || s < 1.3 {
		t.Errorf("2-PE speedup %v outside (1.3, 2)", s)
	}
}

func TestTable1Shape(t *testing.T) {
	tbl, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Row 0 is Slices: system small on device, SPI share modest.
	if dev := cellFloat(t, tbl, 0, 2); dev > 20 {
		t.Errorf("system slice utilization %.1f%% too high for table 1", dev)
	}
	if lib := cellFloat(t, tbl, 0, 4); lib < 3 || lib > 45 {
		t.Errorf("SPI slice share %.1f%% outside modest band", lib)
	}
	// Row 3 is BRAMs: SPI holds a large share (paper 50%).
	if lib := cellFloat(t, tbl, 3, 4); lib < 20 || lib > 80 {
		t.Errorf("SPI BRAM share %.1f%% not near half", lib)
	}
}

func TestTable2Shape(t *testing.T) {
	tbl, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	// System dominates device slices; SPI tiny.
	if dev := cellFloat(t, tbl, 0, 2); dev < 25 || dev > 100 {
		t.Errorf("system slice utilization %.1f%% not dominant", dev)
	}
	if lib := cellFloat(t, tbl, 0, 4); lib > 5 {
		t.Errorf("SPI slice share %.2f%% should be tiny (paper 0.2%%)", lib)
	}
	// DSP row: SPI uses none.
	if lib := cellFloat(t, tbl, 4, 4); lib != 0 {
		t.Errorf("SPI DSP share %.1f%%, want 0", lib)
	}
}

func TestFig3ReducesSync(t *testing.T) {
	tbl, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	before := cellFloat(t, tbl, 0, 1)
	after := cellFloat(t, tbl, 0, 2)
	if after >= before {
		t.Errorf("sync edges %v -> %v did not reduce:\n%s", before, after, tbl)
	}
	// Throughput preserved.
	pb := cellFloat(t, tbl, 4, 1)
	pa := cellFloat(t, tbl, 4, 2)
	if pa > pb+1e-6 {
		t.Errorf("period degraded %v -> %v", pb, pa)
	}
}

func TestFig5ReducesSync(t *testing.T) {
	tbl, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if cellFloat(t, tbl, 0, 2) > cellFloat(t, tbl, 0, 1) {
		t.Errorf("fig5 sync edges grew:\n%s", tbl)
	}
}

func TestFigDOTOutputs(t *testing.T) {
	dots, err := SyncFigureDOT()
	if err != nil {
		t.Fatal(err)
	}
	if len(dots) != 4 {
		t.Fatalf("%d DOT graphs, want fig3 and fig5 before and after", len(dots))
	}
	for i := 0; i < len(dots); i += 2 {
		before, after := dots[i], dots[i+1]
		if !strings.Contains(before, "digraph") || !strings.Contains(after, "digraph") {
			t.Errorf("DOT malformed:\n%s\n%s", before, after)
		}
		if strings.Count(after, "dashed") >= strings.Count(before, "dashed") {
			t.Errorf("%s: resynchronization removed no sync edge", before[:strings.Index(before, "{")])
		}
	}
}

// TestSyncFiguresMatchWireVerdict: figures 3 and 5 report the verdict the
// wire acts on — the same sync-edge counts and period as
// spi.ResyncSuppression on the same deployments — and `spigraph -graph app2
// -pes 2`, which deploys the figures' 150 particles per PE, analyzes fig.
// 5's system and prints its period.
func TestSyncFiguresMatchWireVerdict(t *testing.T) {
	for _, f := range []struct {
		table  func() (*Table, error)
		system func() (*spi.System, error)
	}{{Fig3, fig3System}, {Fig5, fig5System}} {
		tbl, err := f.table()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := f.system()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := spi.ResyncSuppression(sys.Graph, sys.Mapping)
		if err != nil {
			t.Fatal(err)
		}
		rep := plan.Report
		want := [][]string{
			{"sync_edges", fmt.Sprint(rep.SyncBefore), fmt.Sprint(rep.SyncAfter)},
			{"steady_period_cycles", fmt.Sprintf("%.1f", rep.PeriodBefore), fmt.Sprintf("%.1f", rep.PeriodAfter)},
		}
		got := [][]string{tbl.Rows[0], tbl.Rows[4]}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows %v, wire verdict %v", tbl.Title, got, want)
		}
	}

	fig5, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := fig5System()
	if err != nil {
		t.Fatal(err)
	}
	app2, err := particle.FilterSystem(particle.DefaultDeploy(150*2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if app2.Graph.String() != sys.Graph.String() {
		t.Errorf("spigraph -graph app2 -pes 2 analyzes\n%s\nfig. 5 deploys\n%s", app2.Graph, sys.Graph)
	}
	res, err := sched.SelfTimed(app2.Graph, app2.Mapping, sched.SelfTimedConfig{Iterations: 20, Warmup: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%.1f", res.Period), fig5.Rows[4][1]; got != want {
		t.Errorf("spigraph -graph app2 -pes 2: steady period %s cycles, fig. 5 %s", got, want)
	}
}

func TestSPIvsMPIOrdering(t *testing.T) {
	tbl, err := SPIvsMPI()
	if err != nil {
		t.Fatal(err)
	}
	for row := range tbl.Rows {
		spiStatic := cellFloat(t, tbl, row, 1)
		spiDyn := cellFloat(t, tbl, row, 2)
		mpiT := cellFloat(t, tbl, row, 3)
		if !(spiStatic <= spiDyn && spiDyn < mpiT) {
			t.Errorf("row %d ordering violated: static=%v dynamic=%v mpi=%v",
				row, spiStatic, spiDyn, mpiT)
		}
	}
	// The relative advantage shrinks as payload grows (headers amortize).
	first := cellFloat(t, tbl, 0, 3) / cellFloat(t, tbl, 0, 1)
	lastRow := len(tbl.Rows) - 1
	last := cellFloat(t, tbl, lastRow, 3) / cellFloat(t, tbl, lastRow, 1)
	if last >= first {
		t.Errorf("MPI/SPI ratio should shrink with payload: %v -> %v", first, last)
	}
}

func TestBBSvsUBSShape(t *testing.T) {
	tbl, err := BBSvsUBS()
	if err != nil {
		t.Fatal(err)
	}
	// BBS row: no acks, bounded queue. UBS row: acks, larger queue.
	if got := tbl.Rows[0][2]; got != "0" {
		t.Errorf("BBS acks = %s, want 0", got)
	}
	if cellFloat(t, tbl, 1, 2) == 0 {
		t.Error("UBS should generate acks")
	}
	if cellFloat(t, tbl, 1, 4) <= cellFloat(t, tbl, 0, 4) {
		t.Error("UBS queue should exceed BBS capacity bound")
	}
}

func TestVTSPaddingSavesBytes(t *testing.T) {
	tbl, err := VTSPadding()
	if err != nil {
		t.Fatal(err)
	}
	vtsBytes := cellFloat(t, tbl, 0, 2)
	padBytes := cellFloat(t, tbl, 1, 2)
	if vtsBytes >= padBytes {
		t.Errorf("VTS bytes %v !< padded %v", vtsBytes, padBytes)
	}
	if savings := cellFloat(t, tbl, 0, 3); savings < 50 {
		t.Errorf("VTS savings %.1f%% lower than expected for sparse migrations", savings)
	}
	if cellFloat(t, tbl, 0, 1) > cellFloat(t, tbl, 1, 1) {
		t.Error("VTS should not be slower than padded transfers")
	}
}

func TestFig1VTSTable(t *testing.T) {
	tbl, err := Fig1VTS()
	if err != nil {
		t.Fatal(err)
	}
	// Edge ab: rates 10/8 -> 1/1, b_max 20, bounded by the feedback path.
	r := tbl.Rows[0]
	if r[1] != "10/8" || r[2] != "1/1" || r[3] != "20" {
		t.Errorf("fig1 row = %v", r)
	}
	if r[8] != "SPI_BBS" {
		t.Errorf("protocol = %s, want SPI_BBS (feedback bounds the buffer)", r[8])
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 12 {
		t.Errorf("All returned %d tables", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("table %q is empty", tbl.Title)
		}
	}
}

func TestFramingAblation(t *testing.T) {
	tbl, err := Framing()
	if err != nil {
		t.Fatal(err)
	}
	for row := range tbl.Rows {
		hdrOps := cellFloat(t, tbl, row, 4)
		delimOps := cellFloat(t, tbl, row, 5)
		if hdrOps != 1 {
			t.Errorf("row %d: header receiver ops = %v, want 1", row, hdrOps)
		}
		payload := cellFloat(t, tbl, row, 0)
		if delimOps < payload {
			t.Errorf("row %d: delimiter ops %v < payload %v", row, delimOps, payload)
		}
		// Worst-case delimiter wire ~2x payload; header wire = payload+4.
		if worst := cellFloat(t, tbl, row, 3); worst < 2*payload {
			t.Errorf("row %d: worst-case wire %v < 2x payload", row, worst)
		}
		if hdrWire := cellFloat(t, tbl, row, 1); hdrWire != payload+4 {
			t.Errorf("row %d: header wire %v, want payload+4", row, hdrWire)
		}
	}
}

func TestResyncPlatformAblation(t *testing.T) {
	tbl, err := ResyncPlatform()
	if err != nil {
		t.Fatal(err)
	}
	before := tbl.Rows[0]
	after := tbl.Rows[1]
	if after[1] != "0" {
		t.Errorf("after_resync acks = %s, want 0", after[1])
	}
	if before[1] == "0" {
		t.Error("before_resync should carry acknowledgements")
	}
	if cellFloat(t, tbl, 1, 3) >= cellFloat(t, tbl, 0, 3) {
		t.Error("total messages should drop after resynchronization")
	}
	if cellFloat(t, tbl, 1, 4) > cellFloat(t, tbl, 0, 4)+0.01 {
		t.Error("frame time should not degrade after resynchronization")
	}
}
