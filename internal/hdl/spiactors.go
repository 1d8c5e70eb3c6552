package hdl

import "fmt"

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

// stagingFIFO picks distributed RAM for small buffers and block RAM beyond
// 128 bytes, as a synthesis tool would.
func stagingFIFO(name string, bytes int) *Module {
	if bytes <= 0 {
		bytes = 16
	}
	if bytes <= 128 {
		return FIFODistributed(name, bytes)
	}
	return FIFOBRAM(name, bytes)
}

// SPILibrary bundles the communication actors of one PE: init logic plus a
// send/receive actor per edge description.
type SPIEdgeHW struct {
	// Name labels the edge.
	Name string
	// Dynamic selects the SPI_dynamic actor pair.
	Dynamic bool
	// BufferBytes is the staging/IPC buffer size (the VTS bound for
	// dynamic edges, rate x token size for static).
	BufferBytes int
	// UBS adds the acknowledgement generator on the receive side.
	UBS bool
	// Sends / Receives say which actor(s) this PE instantiates for the
	// edge (a PE usually has one side; the I/O interface has the other).
	Sends, Receives bool
}

// SPILibrary returns the "spi_lib" module of one PE given its edges. As in
// the paper's FPGA library, a PE instantiates one shared send engine and
// one shared receive engine (header formation/parsing FSMs, burst counters,
// the bound check and — under UBS — the acknowledgement generator), which
// multiplex over per-edge staging buffers selected by edge ID. Sharing the
// engines is what keeps the library small relative to the full system
// (tables 1 and 2).
func SPILibrary(pe string, edges []SPIEdgeHW) *Module {
	m := NewModule("spi_lib." + pe)
	m.Add(SPIInit(max(1, len(edges))))
	var anySend, anyRecv, anyDyn, anyUBS bool
	for _, e := range edges {
		anySend = anySend || e.Sends
		anyRecv = anyRecv || e.Receives
		anyDyn = anyDyn || e.Dynamic
		anyUBS = anyUBS || (e.UBS && e.Receives)
	}
	if anySend {
		tx := NewModule(pe + ".tx_engine")
		tx.Add(Register(pe+".tx.hdr", 16))
		if anyDyn {
			tx.Add(Register(pe+".tx.size", 16))
			tx.Add(Comparator(pe+".tx.bound", 16))
		}
		tx.Add(Counter(pe+".tx.burst", 10))
		tx.Add(FSM(pe+".tx.ctl", 6))
		m.Add(tx)
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
		m.Add(rx)
	}
	for _, e := range edges {
		m.Add(stagingFIFO(pe+".buf."+e.Name, e.BufferBytes))
	}
	return m
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
