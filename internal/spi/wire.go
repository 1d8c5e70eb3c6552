// Package spi implements the Signal Passing Interface — the paper's
// communication library for multiprocessor signal processing systems. SPI
// integrates MPI-style message passing with coarse-grain dataflow: for every
// dataflow edge that crosses processors, a pair of communication actors
// (send/receive) is inserted, cleanly separating communication from
// computation.
//
// The library has two components (paper §5.1):
//
//   - SPI_static handles edges whose transfer sizes are fixed at compile
//     time. Its message header carries only the interprocessor edge ID.
//   - SPI_dynamic handles edges converted by the VTS model (package vts),
//     whose packed-token size varies at run time bounded by b_max. Its
//     header carries the edge ID and the message size.
//
// In both cases the message datatype is known at compile time and is not
// transmitted — a deliberate specialization over MPI (package mpi), whose
// generic headers and rendezvous handshake cost more per message.
//
// Buffer synchronization follows the SPI_BBS / SPI_UBS protocols (paper
// §4): BBS applies when an edge's buffer is provably bounded (package vts,
// eq. 2) and uses back-pressure on a fixed-size buffer; UBS applies
// otherwise and uses acknowledgements to manage a dynamically sized buffer.
//
// Package spi offers two execution paths: a software runtime on goroutines
// and channels (Runtime), and a builder that lowers an SPI system onto the
// cycle-level platform simulator (package platform) for timing studies.
package spi

import (
	"encoding/binary"
	"fmt"
)

// EdgeID identifies an interprocessor edge; it is the only routing
// information an SPI_static message carries.
type EdgeID uint16

// Mode selects the SPI component serving an edge.
type Mode uint8

const (
	// Static: compile-time-known transfer size; header = edge ID.
	Static Mode = iota
	// Dynamic: run-time variable (VTS packed) size; header = edge ID + size.
	Dynamic
)

func (m Mode) String() string {
	if m == Static {
		return "SPI_static"
	}
	return "SPI_dynamic"
}

// Header sizes on the wire.
const (
	// StaticHeaderBytes is the SPI_static header: edge ID only.
	StaticHeaderBytes = 2
	// DynamicHeaderBytes is the SPI_dynamic header: edge ID + u32 size.
	DynamicHeaderBytes = 6
)

// HeaderBytes returns the wire header size for a mode.
func HeaderBytes(m Mode) int {
	if m == Dynamic {
		return DynamicHeaderBytes
	}
	return StaticHeaderBytes
}

// AppendMessage frames a payload for the wire into dst (growing it as
// needed) and returns the extended slice. For Static mode the payload
// length must equal the edge's fixed size (validated by the caller); the
// encoded form is header || payload.
func AppendMessage(dst []byte, mode Mode, id EdgeID, payload []byte) []byte {
	switch mode {
	case Static:
		dst = append(dst, byte(id), byte(id>>8))
	case Dynamic:
		n := uint32(len(payload))
		dst = append(dst, byte(id), byte(id>>8),
			byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	default:
		panic(fmt.Sprintf("spi: unknown mode %d", mode))
	}
	return append(dst, payload...)
}

// DecodeStatic parses an SPI_static message, returning the edge ID and
// payload. The expected payload size must be supplied (it is compile-time
// knowledge); a size mismatch is a framing error.
func DecodeStatic(msg []byte, expectBytes int) (EdgeID, []byte, error) {
	if len(msg) < StaticHeaderBytes {
		return 0, nil, fmt.Errorf("spi: static message of %d bytes shorter than header", len(msg))
	}
	id := EdgeID(binary.LittleEndian.Uint16(msg))
	payload := msg[StaticHeaderBytes:]
	if len(payload) != expectBytes {
		return 0, nil, fmt.Errorf("spi: static message on edge %d has %d payload bytes, expect %d",
			id, len(payload), expectBytes)
	}
	return id, payload, nil
}

// DecodeDynamic parses an SPI_dynamic message, returning the edge ID and
// payload. maxBytes is the edge's b_max bound; larger sizes are rejected.
func DecodeDynamic(msg []byte, maxBytes int) (EdgeID, []byte, error) {
	if len(msg) < DynamicHeaderBytes {
		return 0, nil, fmt.Errorf("spi: dynamic message of %d bytes shorter than header", len(msg))
	}
	id := EdgeID(binary.LittleEndian.Uint16(msg))
	size := int(binary.LittleEndian.Uint32(msg[2:]))
	if size > maxBytes {
		return 0, nil, fmt.Errorf("spi: dynamic message on edge %d declares %d bytes, bound is %d",
			id, size, maxBytes)
	}
	if len(msg)-DynamicHeaderBytes != size {
		return 0, nil, fmt.Errorf("spi: dynamic message on edge %d has %d payload bytes, header says %d",
			id, len(msg)-DynamicHeaderBytes, size)
	}
	return id, msg[DynamicHeaderBytes:], nil
}
