// Package mpi implements a deliberately generic message-passing baseline in
// the style of MPI point-to-point communication, used as the comparator the
// SPI paper argues against for embedded signal processing.
//
// Where SPI exploits compile-time knowledge (edge identity, datatype, and —
// for static edges — message size), this baseline carries a full
// self-describing header on every message and uses a rendezvous handshake
// (request-to-send / clear-to-send) for messages above an eager threshold,
// as real MPI implementations over FPGA interconnects do (cf. TMD-MPI).
// The per-message cost difference against package spi is the subject of the
// SPI-vs-MPI ablation benchmarks.
package mpi

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Datatype tags the element type of a message, carried on the wire (SPI
// omits this: datatypes are compile-time knowledge there).
type Datatype uint32

// Supported datatypes.
const (
	Byte Datatype = iota + 1
	Int32
	Float32
	Float64
)

// Size returns the element size in bytes.
func (d Datatype) Size() int {
	switch d {
	case Byte:
		return 1
	case Int32, Float32:
		return 4
	case Float64:
		return 8
	default:
		return 0
	}
}

// HeaderBytes is the generic MPI-style header: tag, source, dest, datatype,
// count, payload size — six 32-bit fields.
const HeaderBytes = 24

// EagerLimit is the default payload size above which the rendezvous
// protocol engages (RTS/CTS handshake before the data message).
const EagerLimit = 512

// Envelope is a decoded message header.
type Envelope struct {
	Tag      uint32
	Source   uint32
	Dest     uint32
	Datatype Datatype
	Count    uint32
}

// Encode frames a payload with the full MPI-style header.
func Encode(env Envelope, payload []byte) []byte {
	out := make([]byte, HeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(out[0:], env.Tag)
	binary.LittleEndian.PutUint32(out[4:], env.Source)
	binary.LittleEndian.PutUint32(out[8:], env.Dest)
	binary.LittleEndian.PutUint32(out[12:], uint32(env.Datatype))
	binary.LittleEndian.PutUint32(out[16:], env.Count)
	binary.LittleEndian.PutUint32(out[20:], uint32(len(payload)))
	copy(out[HeaderBytes:], payload)
	return out
}

// Decode parses a framed message.
func Decode(msg []byte) (Envelope, []byte, error) {
	if len(msg) < HeaderBytes {
		return Envelope{}, nil, fmt.Errorf("mpi: message of %d bytes shorter than header", len(msg))
	}
	env := Envelope{
		Tag:      binary.LittleEndian.Uint32(msg[0:]),
		Source:   binary.LittleEndian.Uint32(msg[4:]),
		Dest:     binary.LittleEndian.Uint32(msg[8:]),
		Datatype: Datatype(binary.LittleEndian.Uint32(msg[12:])),
		Count:    binary.LittleEndian.Uint32(msg[16:]),
	}
	size := int(binary.LittleEndian.Uint32(msg[20:]))
	if len(msg)-HeaderBytes != size {
		return Envelope{}, nil, fmt.Errorf("mpi: payload %d bytes, header says %d", len(msg)-HeaderBytes, size)
	}
	if env.Datatype.Size() == 0 {
		return Envelope{}, nil, fmt.Errorf("mpi: unknown datatype %d", env.Datatype)
	}
	if want := int(env.Count) * env.Datatype.Size(); want != size {
		return Envelope{}, nil, fmt.Errorf("mpi: count %d x %d bytes != payload %d", env.Count, env.Datatype.Size(), size)
	}
	return env, msg[HeaderBytes:], nil
}

// Comm is a software communicator over a fixed number of ranks, mirroring
// MPI_COMM_WORLD semantics for blocking point-to-point operations. Messages
// match by (source, tag) in FIFO order.
type Comm struct {
	size int

	mu     sync.Mutex
	cond   *sync.Cond
	queues map[matchKey][][]byte

	stats Stats
}

type matchKey struct {
	src, dst int
	tag      uint32
}

// Stats counts communicator traffic.
type Stats struct {
	Messages   int64
	WireBytes  int64
	Handshakes int64 // rendezvous RTS/CTS pairs
}

// NewComm returns a communicator with the given number of ranks.
func NewComm(size int) (*Comm, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: communicator size %d", size)
	}
	c := &Comm{size: size, queues: make(map[matchKey][][]byte)}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// Send transmits payload elements of the given datatype from src to dst
// with a tag. It validates ranks and datatype/payload agreement, frames the
// full header, and accounts rendezvous handshakes above the eager limit.
func (c *Comm) Send(src, dst int, tag uint32, dt Datatype, payload []byte) error {
	if err := c.checkRank(src, dst); err != nil {
		return err
	}
	es := dt.Size()
	if es == 0 {
		return fmt.Errorf("mpi: unknown datatype %d", dt)
	}
	if len(payload)%es != 0 {
		return fmt.Errorf("mpi: payload %d bytes not a multiple of element size %d", len(payload), es)
	}
	msg := Encode(Envelope{
		Tag: tag, Source: uint32(src), Dest: uint32(dst),
		Datatype: dt, Count: uint32(len(payload) / es),
	}, payload)

	c.mu.Lock()
	defer c.mu.Unlock()
	k := matchKey{src: src, dst: dst, tag: tag}
	c.queues[k] = append(c.queues[k], msg)
	c.stats.Messages++
	c.stats.WireBytes += int64(len(msg))
	if len(payload) > EagerLimit {
		c.stats.Handshakes++
		c.stats.WireBytes += 2 * HeaderBytes // RTS + CTS control messages
	}
	c.cond.Broadcast()
	return nil
}

// Recv blocks for a message from src to dst with the given tag and returns
// its payload and envelope.
func (c *Comm) Recv(src, dst int, tag uint32) (Envelope, []byte, error) {
	if err := c.checkRank(src, dst); err != nil {
		return Envelope{}, nil, err
	}
	k := matchKey{src: src, dst: dst, tag: tag}
	c.mu.Lock()
	for len(c.queues[k]) == 0 {
		c.cond.Wait()
	}
	msg := c.queues[k][0]
	c.queues[k] = c.queues[k][1:]
	c.mu.Unlock()
	return Decode(msg)
}

// Stats returns a snapshot of the communicator's traffic counters.
func (c *Comm) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Comm) checkRank(src, dst int) error {
	if src < 0 || src >= c.size || dst < 0 || dst >= c.size {
		return fmt.Errorf("mpi: rank out of range (src=%d dst=%d size=%d)", src, dst, c.size)
	}
	if src == dst {
		return fmt.Errorf("mpi: self-send (rank %d)", src)
	}
	return nil
}
