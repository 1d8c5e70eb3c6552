package hdl

import (
	"fmt"

	"repro/internal/spi"
)

// Hardware realizations of the SPI communication actors (paper §5.1: the
// FPGA library implements SPI_init, SPI_send and SPI_receive for both
// SPI_static and SPI_dynamic). Module names carry the "spi_" prefix so the
// library's area can be separated from the application datapath with
// Module.TotalOf("spi_"), reproducing the tables' "SPI library relative to
// full system" rows.

// SPIInit returns the one-time edge-table initialization logic shared by a
// PE's communication actors: an edge-ID ROM and configuration registers.
func SPIInit(edges int) *Module {
	if edges <= 0 {
		panic(fmt.Sprintf("hdl: SPIInit with %d edges", edges))
	}
	m := NewModule("spi_init")
	m.Add(LUTLogic("spi_init.edgerom", 2*edges))
	m.Add(Register("spi_init.cfg", 16))
	return m
}

// AddSPILibraries adds to top the datapath of every processor p that has
// one, datapaths[p] (nil for a processor without), and beside it p's
// "spi_lib" module, derived as paper §5 builds the library from the edge
// plans spi.Build makes for sys: a send or receive actor for each
// interprocessor edge p ends, SPI_static or SPI_dynamic by the edge's
// mode, an acknowledgement generator only where p receives a UBS edge, and
// a staging buffer of B(e) on a BBS edge (its capacity in messages of b_max
// bytes, as the runtime provisions it) or of c(e) on a UBS edge (one b_max
// message). As in the paper's FPGA library, the actors share one send and
// one receive engine (header formation/parsing FSMs, burst counters, the
// bound check, the acknowledgement generator), which multiplex over the
// per-edge buffers by edge ID. Sharing the engines is what keeps the
// library small relative to the full system (tables 1 and 2).
func AddSPILibraries(top *Module, sys *spi.System, datapaths []*Module) error {
	dep, err := spi.Build(sys)
	if err != nil {
		return err
	}
	for proc, dp := range datapaths {
		if dp == nil {
			continue
		}
		pe, lib := dp.Name(), NewModule("spi_lib."+dp.Name())
		var edges int
		var anySend, anyRecv, anyDyn, anyUBS bool
		for _, pl := range dep.Plans {
			e := sys.Graph.Edge(pl.Edge)
			send, recv := int(sys.Mapping.Proc[e.Src]) == proc, int(sys.Mapping.Proc[e.Snk]) == proc
			if !send && !recv {
				continue
			}
			edges++
			anySend, anyRecv = anySend || send, anyRecv || recv
			anyDyn = anyDyn || pl.Mode == spi.Dynamic
			anyUBS = anyUBS || recv && pl.Protocol == spi.UBS
			buf := max(pl.PayloadBytes, pl.MaxBytes)
			if pl.Protocol == spi.BBS {
				buf *= pl.Capacity
			}
			// Distributed RAM for small buffers, block RAM beyond 128
			// bytes, as a synthesis tool would pick.
			fifo := FIFODistributed
			if buf > 128 {
				fifo = FIFOBRAM
			}
			lib.Add(fifo(pe+".buf."+pl.Name, buf))
		}
		lib.Add(SPIInit(max(1, edges)))
		if anySend {
			tx := NewModule(pe + ".tx_engine")
			tx.Add(Register(pe+".tx.hdr", 16))
			if anyDyn {
				tx.Add(Register(pe+".tx.size", 16))
				tx.Add(Comparator(pe+".tx.bound", 16))
			}
			tx.Add(Counter(pe+".tx.burst", 10))
			tx.Add(FSM(pe+".tx.ctl", 6))
			lib.Add(tx)
		}
		if anyRecv {
			rx := NewModule(pe + ".rx_engine")
			rx.Add(Comparator(pe+".rx.idmatch", 16))
			if anyDyn {
				rx.Add(Register(pe+".rx.size", 16))
			}
			rx.Add(Counter(pe+".rx.burst", 10))
			rx.Add(FSM(pe+".rx.ctl", 6))
			if anyUBS {
				rx.Add(LUTLogic(pe+".rx.ackgen", 8))
				rx.Add(Counter(pe+".rx.ackseq", 8))
			}
			lib.Add(rx)
		}
		top.Add(dp).Add(lib)
	}
	return nil
}
