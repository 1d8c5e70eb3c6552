package hdl

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestResourcesAddScale(t *testing.T) {
	a := Resources{Slices: 1, SliceFFs: 2, LUT4s: 3, BRAMs: 4, DSP48s: 5}
	b := a.Add(a)
	if want := (Resources{Slices: 2, SliceFFs: 4, LUT4s: 6, BRAMs: 8, DSP48s: 10}); b != want {
		t.Errorf("a.Add(a) = %v, want %v", b, want)
	}
	if !(Resources{}).IsZero() || a.IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestPercentOf(t *testing.T) {
	lib := Resources{Slices: 10, BRAMs: 1}
	sys := Resources{Slices: 100, BRAMs: 2}
	p := lib.PercentOf(sys)
	if p.Slices != 10 || p.BRAMs != 50 {
		t.Errorf("percent = %+v", p)
	}
	// zero base -> 0, not NaN
	if p.DSP48s != 0 {
		t.Errorf("zero-base percent = %v", p.DSP48s)
	}
}

func TestDeviceBudgets(t *testing.T) {
	sx := VirtexSX35()
	if sx.Slices != 15360 || sx.BRAMs != 192 {
		t.Errorf("SX35 = %v", sx)
	}
}

func TestModuleHierarchyTotals(t *testing.T) {
	m := NewModule("top")
	m.AddOwn(Resources{Slices: 1})
	c1 := NewModule("child1").AddOwn(Resources{Slices: 2, BRAMs: 1})
	c2 := NewModule("child2").AddOwn(Resources{Slices: 3})
	c1.Add(NewModule("grand").AddOwn(Resources{DSP48s: 4}))
	m.Add(c1).Add(c2)
	total := m.Total()
	if total.Slices != 6 || total.BRAMs != 1 || total.DSP48s != 4 {
		t.Errorf("total = %v", total)
	}
}

func TestFindAllPrefixNoDoubleCount(t *testing.T) {
	m := NewModule("top")
	lib := NewModule("spi_lib.pe0").AddOwn(Resources{Slices: 5})
	lib.Add(NewModule("spi_send_static.x").AddOwn(Resources{Slices: 3}))
	m.Add(lib)
	m.Add(NewModule("datapath").AddOwn(Resources{Slices: 100}))
	found := m.FindAll("spi_")
	if len(found) != 1 {
		t.Fatalf("FindAll = %d matches, want 1 (no nested double count)", len(found))
	}
	if got := m.TotalOf("spi_").Slices; got != 8 {
		t.Errorf("TotalOf slices = %d, want 8", got)
	}
}

func TestAddNilChildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModule("x").Add(nil)
}

func TestReportContainsHierarchy(t *testing.T) {
	m := NewModule("top")
	m.Add(NewModule("inner").AddOwn(Resources{Slices: 2}))
	rep := m.Report()
	if !strings.Contains(rep, "top") || !strings.Contains(rep, "  inner") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestPrimitiveCosts(t *testing.T) {
	if r := Register("r", 16).Total(); r.SliceFFs != 16 || r.Slices != 8 {
		t.Errorf("register = %v", r)
	}
	if r := LUTLogic("l", 10).Total(); r.LUT4s != 10 || r.Slices != 5 {
		t.Errorf("lutlogic = %v", r)
	}
	if r := Counter("c", 8).Total(); r.SliceFFs != 8 || r.LUT4s != 8 {
		t.Errorf("counter = %v", r)
	}
	if r := Adder("a", 32).Total(); r.SliceFFs != 32 || r.LUT4s != 32 {
		t.Errorf("adder = %v", r)
	}
	if r := Multiplier("m", 18, 18).Total(); r.DSP48s != 1 {
		t.Errorf("18x18 multiplier = %v", r)
	}
	if r := Multiplier("m", 32, 32).Total(); r.DSP48s != 4 {
		t.Errorf("32x32 multiplier = %v, want 4 DSP48s", r)
	}
	if r := MAC("mac", 18).Total(); r.DSP48s != 1 || r.SliceFFs < 36 {
		t.Errorf("MAC = %v", r)
	}
}

func TestFIFOBRAMCapacity(t *testing.T) {
	if r := FIFOBRAM("f", 2048).Total(); r.BRAMs != 1 {
		t.Errorf("2KiB FIFO = %v, want 1 BRAM", r)
	}
	if r := FIFOBRAM("f", 2049).Total(); r.BRAMs != 2 {
		t.Errorf("2KiB+1 FIFO = %v, want 2 BRAMs", r)
	}
	if r := RAM("m", 10*2048).Total(); r.BRAMs != 10 {
		t.Errorf("RAM = %v", r)
	}
}

func TestFIFODistributedUsesNoBRAM(t *testing.T) {
	r := FIFODistributed("f", 64).Total()
	if r.BRAMs != 0 {
		t.Errorf("distributed FIFO used BRAM: %v", r)
	}
	if r.LUT4s < 32 {
		t.Errorf("distributed FIFO LUTs = %d, want >= 32 (64B at 16 bits/LUT)", r.LUT4s)
	}
}

func TestFSMCost(t *testing.T) {
	r := FSM("f", 6).Total()
	if r.SliceFFs != 3 { // ceil(log2 6) = 3 state bits
		t.Errorf("FSM state bits = %d FFs, want 3", r.SliceFFs)
	}
	if r.LUT4s != 24 {
		t.Errorf("FSM decode LUTs = %d, want 24", r.LUT4s)
	}
}

func TestPrimitiveValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"Register":   func() { Register("x", 0) },
		"Counter":    func() { Counter("x", -1) },
		"FIFOBRAM":   func() { FIFOBRAM("x", 0) },
		"Multiplier": func() { Multiplier("x", 0, 4) },
		"FSM":        func() { FSM("x", 0) },
		"SPIInit":    func() { SPIInit(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with bad parameter should panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: Total is always the sum of Own over the closure (checked by
// random trees).
func TestTotalIsSumProperty(t *testing.T) {
	f := func(seeds []uint8) bool {
		m := NewModule("root")
		var sum Resources
		cur := m
		for _, s := range seeds {
			r := Resources{Slices: int(s % 7), LUT4s: int(s % 5), BRAMs: int(s % 3)}
			child := NewModule("n").AddOwn(r)
			sum = sum.Add(r)
			cur.Add(child)
			if s%2 == 0 {
				cur = child
			}
		}
		return m.Total() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
