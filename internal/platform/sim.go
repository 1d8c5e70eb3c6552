// Package platform implements a deterministic discrete-event simulator of a
// multi-PE (processing element) platform, substituting for the Xilinx
// Virtex-4 FPGA testbed of the paper's evaluation.
//
// Each PE executes a compile-time program — a sequence of compute, send and
// receive operations repeated for a number of graph iterations — in the
// self-timed style: an operation starts as soon as its processor and its
// data are available. Point-to-point channels model the on-chip
// interconnect with per-message header cost, bandwidth-proportional
// serialization, and fixed link latency. Bounded channels exert
// back-pressure (the SPI_BBS protocol); unbounded channels instead generate
// acknowledgement traffic (SPI_UBS).
//
// The simulator is cycle-denominated and fully deterministic: identical
// inputs produce identical timelines.
package platform

import (
	"fmt"
)

// Time is a simulation timestamp in PE clock cycles.
type Time int64

// MsgKind classifies simulated messages for accounting.
type MsgKind uint8

const (
	// DataMsg carries application payload.
	DataMsg MsgKind = iota
	// AckMsg is a UBS acknowledgement.
	AckMsg
	// SyncMsg is a pure synchronization message (resynchronization edges).
	SyncMsg
	// CtrlMsg is protocol control traffic (e.g., MPI rendezvous RTS/CTS).
	CtrlMsg
	numMsgKinds
)

func (k MsgKind) String() string {
	switch k {
	case DataMsg:
		return "data"
	case AckMsg:
		return "ack"
	case SyncMsg:
		return "sync"
	case CtrlMsg:
		return "ctrl"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// ChannelID identifies a channel within a Sim.
type ChannelID int

// ChannelSpec configures one point-to-point channel.
type ChannelSpec struct {
	// From and To are PE indices.
	From, To int
	// Name labels the channel in stats and errors.
	Name string
	// HeaderBytes is the per-message header size on the wire. SPI_static
	// uses 2 (edge ID), SPI_dynamic 6 (edge ID + size), the MPI baseline
	// more.
	HeaderBytes int
	// Capacity bounds the number of in-flight-or-queued messages. Zero
	// means unbounded (SPI_UBS); positive engages back-pressure (SPI_BBS).
	Capacity int
	// AckBytes, when positive, makes the receiver send an acknowledgement
	// of that payload size after consuming each message (UBS consistency
	// traffic). The sender does not block on acks; they cost receiver send
	// time and wire bytes.
	AckBytes int
	// Preload seeds the channel with that many zero-time messages before
	// the run — the initial tokens (delays) of a dataflow edge. Preloaded
	// messages carry no payload, consume BBS capacity and are not counted
	// in traffic stats.
	Preload int
}

// OpKind enumerates program operations.
type OpKind uint8

const (
	// OpCompute busy-spins the PE for a cycle count.
	OpCompute OpKind = iota
	// OpSend transmits one message on a channel.
	OpSend
	// OpRecv consumes one message from a channel.
	OpRecv
)

// Op is one program step.
type Op struct {
	Kind OpKind
	// Cycles is the duration of OpCompute.
	Cycles int64
	// Ch is the channel of OpSend/OpRecv.
	Ch ChannelID
	// Bytes is the payload size of OpSend. BytesFn overrides per iteration
	// (dynamic-size sends, the SPI_dynamic case).
	Bytes   int
	BytesFn func(iter int) int
	// Kind2 is the message kind for OpSend (DataMsg by default).
	MsgKind MsgKind
}

// Compute returns an OpCompute with fixed cost.
func Compute(cycles int64) Op { return Op{Kind: OpCompute, Cycles: cycles} }

// Send returns an OpSend with fixed payload size.
func Send(ch ChannelID, bytes int) Op { return Op{Kind: OpSend, Ch: ch, Bytes: bytes} }

// SendFn returns an OpSend with per-iteration payload size.
func SendFn(ch ChannelID, f func(iter int) int) Op {
	return Op{Kind: OpSend, Ch: ch, BytesFn: f}
}

// SendKind returns an OpSend with an explicit message kind (sync messages).
func SendKind(ch ChannelID, bytes int, kind MsgKind) Op {
	return Op{Kind: OpSend, Ch: ch, Bytes: bytes, MsgKind: kind}
}

// Recv returns an OpRecv.
func Recv(ch ChannelID) Op { return Op{Kind: OpRecv, Ch: ch} }

// Program is a PE's per-iteration operation sequence.
type Program []Op

// Config configures the platform.
type Config struct {
	// NumPEs is the number of processing elements.
	NumPEs int
	// ClockHz converts cycles to seconds in reports. The paper targets a
	// Virtex-4 at (well under) 500 MHz; 100 MHz is the default.
	ClockHz float64
	// LinkLatencyCycles is the fixed wire latency per message.
	LinkLatencyCycles int64
	// CyclesPerByte is the serialization cost per payload/header byte.
	// With a 32-bit datapath at one word per cycle, 0.25; we use integer
	// math: cycles = (bytes*CyclesPerByteNum + Den - 1) / Den.
	CyclesPerByteNum, CyclesPerByteDen int64
	// SendOverheadCycles is the per-message sender-side protocol cost
	// (header formation, handshake initiation).
	SendOverheadCycles int64
	// RecvOverheadCycles is the per-message receiver-side protocol cost.
	RecvOverheadCycles int64
}

// DefaultConfig returns a 100 MHz platform with a 32-bit, 1-word-per-cycle
// interconnect and small per-message overheads.
func DefaultConfig(numPEs int) Config {
	return Config{
		NumPEs:             numPEs,
		ClockHz:            100e6,
		LinkLatencyCycles:  4,
		CyclesPerByteNum:   1,
		CyclesPerByteDen:   4,
		SendOverheadCycles: 2,
		RecvOverheadCycles: 2,
	}
}

// Stats aggregates a simulation run.
type Stats struct {
	// Finish is the completion time of the whole run.
	Finish Time
	// IterationFinish is the completion time of each iteration (max over
	// PEs of the iteration's last op).
	IterationFinish []Time
	// Messages and Bytes count wire traffic by kind.
	Messages [numMsgKinds]int64
	Bytes    [numMsgKinds]int64
	// PEBusy is per-PE busy time (compute + send/recv overheads).
	PEBusy []Time
	// MaxQueued is the maximum simultaneous queued messages per channel —
	// the observed buffer demand, comparable to the VTS bound.
	MaxQueued []int
}

// Microseconds converts a simulated time to microseconds at the configured
// clock.
func (s *Stats) Microseconds(cfg Config, t Time) float64 {
	return float64(t) / cfg.ClockHz * 1e6
}

// TotalMessages sums message counts across kinds.
func (s *Stats) TotalMessages() int64 {
	var n int64
	for _, v := range s.Messages {
		n += v
	}
	return n
}

// TotalBytes sums byte counts across kinds.
func (s *Stats) TotalBytes() int64 {
	var n int64
	for _, v := range s.Bytes {
		n += v
	}
	return n
}
