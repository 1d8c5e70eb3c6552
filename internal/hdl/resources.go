// Package hdl models the HDL realization of SPI systems at the structural
// level: hardware modules composed of primitives (registers, LUT logic,
// FIFOs, block RAMs, DSP slices) with an FPGA resource-cost model calibrated
// to the Xilinx Virtex-4 family the paper targets.
//
// No actual synthesis happens — the package substitutes for Xilinx ISE's
// area reports. Costs are first-order estimates (a register bit is a slice
// flip-flop; two FFs or two 4-input LUTs fit one Virtex-4 slice; an 18 Kbit
// block RAM holds 2 KiB; a DSP48 implements an 18x18 multiply-accumulate).
// What the paper's tables 1 and 2 assert is *relative*: the SPI library's
// area is small next to the application datapath — a claim a consistent
// bottom-up cost model can check without a synthesizer.
package hdl

import "fmt"

// Resources is a Virtex-4-style FPGA area vector.
type Resources struct {
	// Slices is the occupied slice estimate: max(FFs, LUT4s) / 2, plus
	// explicit slice costs of primitives. Tracked directly rather than
	// derived so modules can override packing assumptions.
	Slices int
	// SliceFFs counts slice flip-flops.
	SliceFFs int
	// LUT4s counts 4-input look-up tables.
	LUT4s int
	// BRAMs counts 18 Kbit block RAMs.
	BRAMs int
	// DSP48s counts DSP48 multiply-accumulate slices.
	DSP48s int
}

// Add returns the element-wise sum.
func (r Resources) Add(o Resources) Resources {
	return Resources{
		Slices:   r.Slices + o.Slices,
		SliceFFs: r.SliceFFs + o.SliceFFs,
		LUT4s:    r.LUT4s + o.LUT4s,
		BRAMs:    r.BRAMs + o.BRAMs,
		DSP48s:   r.DSP48s + o.DSP48s,
	}
}

// IsZero reports whether all counts are zero.
func (r Resources) IsZero() bool {
	return r == Resources{}
}

// String renders the vector compactly.
func (r Resources) String() string {
	return fmt.Sprintf("slices=%d ffs=%d luts=%d brams=%d dsp48s=%d",
		r.Slices, r.SliceFFs, r.LUT4s, r.BRAMs, r.DSP48s)
}

// Percent is a resource vector expressed as percentages of a reference.
type Percent struct {
	Slices, SliceFFs, LUT4s, BRAMs, DSP48s float64
}

// PercentOf expresses r as a percentage of base, component-wise. Components
// whose base is zero report 0.
func (r Resources) PercentOf(base Resources) Percent {
	pct := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}
	return Percent{
		Slices:   pct(r.Slices, base.Slices),
		SliceFFs: pct(r.SliceFFs, base.SliceFFs),
		LUT4s:    pct(r.LUT4s, base.LUT4s),
		BRAMs:    pct(r.BRAMs, base.BRAMs),
		DSP48s:   pct(r.DSP48s, base.DSP48s),
	}
}

// VirtexSX35 returns the device budget of a Virtex-4 SX35 — a mid-size
// member of the family the paper's speed-grade-10 target matches.
func VirtexSX35() Resources {
	return Resources{
		Slices:   15360,
		SliceFFs: 30720,
		LUT4s:    30720,
		BRAMs:    192,
		DSP48s:   192,
	}
}
