// Package orch is the elastic orchestration layer: a coordinator that
// registers workers over the transport control plane, partitions a mapped
// graph across the live pool, dispatches each worker only its own
// partition, and migrates actors between epochs when workers join, leave,
// die, or run hot — while keeping sink outputs bit-identical to a static
// run.
//
// The control conversation rides CTRL frames (see transport.CtrlHandler)
// on an ordinary link: numbered frames, so the conversation survives
// reconnects via RESUME replay like the data plane does. Messages use a
// hand-rolled little-endian codec with strict bounds checks — the decoder
// is fuzzed (FuzzDecodeCtrl) and must never panic on adversarial input.
package orch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/spi"
)

// Control opcodes, carried in the CTRL frame's op byte.
const (
	// OpRegister introduces a worker to the coordinator (worker → coord).
	OpRegister byte = 1
	// OpWelcome acknowledges registration with the worker's stable ID.
	OpWelcome byte = 2
	// OpPrepare asks a worker to bind a fresh data-plane listener for an
	// epoch (coord → worker). Per-epoch listeners fence stale connections
	// from aborted epochs out of the new one.
	OpPrepare byte = 3
	// OpReady announces the worker's per-epoch data address.
	OpReady byte = 4
	// OpTask ships one worker's partition spec for an epoch.
	OpTask byte = 5
	// OpDone reports a completed epoch with its checkpoint payload.
	OpDone byte = 6
	// OpFail reports a failed epoch.
	OpFail byte = 7
	// OpAbort cancels an epoch on a worker (coord → worker).
	OpAbort byte = 8
	// OpAbortOK confirms the worker has quiesced the aborted epoch.
	OpAbortOK byte = 9
	// OpShutdown dismisses a worker at end of run.
	OpShutdown byte = 10
	// OpContinue runs the next epoch on the worker's standing deployment
	// (coord → worker), in place of Prepare + Task; answered by Done or Fail.
	OpContinue byte = 11
)

// Register introduces a worker by name.
type Register struct{ Name string }

// Welcome assigns a worker its stable pool ID.
type Welcome struct{ ID uint32 }

// Prepare opens an epoch: the worker binds a fresh data listener.
type Prepare struct{ Epoch uint32 }

// Ready carries the per-epoch data-plane address back.
type Ready struct {
	Epoch uint32
	Addr  string
}

// Task dispatches one partition of an epoch.
type Task struct {
	Epoch uint32
	Spec  *spi.PartitionSpec
}

// Continue dispatches the next epoch to a standing deployment: the links,
// runtime edges, kernels and actor state of the last committed epoch stay
// as they are, and BaseIter must be the iteration that epoch ended at.
type Continue struct {
	Epoch      uint32
	BaseIter   int
	Iterations int
}

// Done reports a committed partition: the sink digest contributions, the
// delayed-edge tails (the migration checkpoint), firing counts, and
// per-processor busy time (the placement load signal, parallel to the
// spec's Procs).
type Done struct {
	Epoch   uint32
	Digests map[string]uint64
	Tails   map[uint16][][]byte
	Firings map[string]uint32
	ProcNS  []int64
}

// Fail reports an epoch failure.
type Fail struct {
	Epoch uint32
	Msg   string
}

// Abort cancels an epoch.
type Abort struct{ Epoch uint32 }

// AbortOK confirms quiescence after an abort.
type AbortOK struct{ Epoch uint32 }

// Shutdown dismisses a worker.
type Shutdown struct{}

var errTruncated = errors.New("orch: truncated control message")

// wireLimit bounds every count field the decoder reads; together with the
// per-element minimum sizes it keeps adversarial inputs from provoking
// huge allocations.
const wireLimit = 1 << 20

type reader struct {
	b   []byte
	err error
}

func (r *reader) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.err = errTruncated
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// count reads a u32 element count and validates it against the remaining
// bytes, given the minimum encoded size of one element.
func (r *reader) count(minElem int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if n > wireLimit || int(n)*minElem > len(r.b) {
		r.err = fmt.Errorf("orch: count %d exceeds remaining %d bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if int(n) > len(r.b) {
		r.err = errTruncated
		return nil
	}
	v := make([]byte, n) // non-nil even when empty: decoding is canonical
	copy(v, r.b[:n])
	r.b = r.b[n:]
	return v
}

func (r *reader) str() string { return string(r.bytes()) }

// iterRange reads a (base iteration, iteration count) pair.
func (r *reader) iterRange() (base, iters int) {
	b, n := r.u64(), r.u64()
	if r.err == nil && (b > math.MaxInt32 || n > math.MaxInt32) {
		r.err = fmt.Errorf("orch: iteration range %d+%d out of bounds", b, n)
		return 0, 0
	}
	return int(b), int(n)
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("orch: %d trailing bytes in control message", len(r.b))
	}
	return nil
}

type writer struct{ b []byte }

func (w *writer) u8(v byte)    { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.b = append(w.b, v...)
}
func (w *writer) str(v string) { w.bytes([]byte(v)) }

func sortedStrings[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Encode renders a control message to its CTRL payload. It accepts the
// message types above and panics on anything else (a programming error,
// not a wire condition).
func Encode(msg any) (op byte, payload []byte) {
	w := &writer{}
	switch m := msg.(type) {
	case Register:
		w.str(m.Name)
		return OpRegister, w.b
	case Welcome:
		w.u32(m.ID)
		return OpWelcome, w.b
	case Prepare:
		w.u32(m.Epoch)
		return OpPrepare, w.b
	case Ready:
		w.u32(m.Epoch)
		w.str(m.Addr)
		return OpReady, w.b
	case Task:
		w.u32(m.Epoch)
		encodeSpec(w, m.Spec)
		return OpTask, w.b
	case Done:
		w.u32(m.Epoch)
		w.u32(uint32(len(m.Digests)))
		for _, k := range sortedStrings(m.Digests) {
			w.str(k)
			w.u64(m.Digests[k])
		}
		ids := make([]int, 0, len(m.Tails))
		for id := range m.Tails {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		w.u32(uint32(len(ids)))
		for _, id := range ids {
			w.u16(uint16(id))
			payloads := m.Tails[uint16(id)]
			w.u32(uint32(len(payloads)))
			for _, p := range payloads {
				w.bytes(p)
			}
		}
		w.u32(uint32(len(m.Firings)))
		for _, k := range sortedStrings(m.Firings) {
			w.str(k)
			w.u32(m.Firings[k])
		}
		w.u32(uint32(len(m.ProcNS)))
		for _, ns := range m.ProcNS {
			w.u64(uint64(ns))
		}
		return OpDone, w.b
	case Fail:
		w.u32(m.Epoch)
		w.str(m.Msg)
		return OpFail, w.b
	case Abort:
		w.u32(m.Epoch)
		return OpAbort, w.b
	case AbortOK:
		w.u32(m.Epoch)
		return OpAbortOK, w.b
	case Shutdown:
		return OpShutdown, nil
	case Continue:
		w.u32(m.Epoch)
		w.u64(uint64(m.BaseIter))
		w.u64(uint64(m.Iterations))
		return OpContinue, w.b
	}
	panic(fmt.Sprintf("orch: encode of unknown message type %T", msg))
}

func encodeSpec(w *writer, s *spi.PartitionSpec) {
	w.str(s.Graph)
	w.u32(uint32(s.Block))
	w.u32(uint32(s.Node))
	w.u32(uint32(s.Workers))
	w.u32(uint32(len(s.Addrs)))
	for _, a := range s.Addrs {
		w.str(a)
	}
	w.u64(uint64(s.BaseIter))
	w.u64(uint64(s.Iterations))
	w.u32(uint32(len(s.Procs)))
	for _, p := range s.Procs {
		w.u32(uint32(p.Proc))
		w.u32(uint32(len(p.Actors)))
		for _, a := range p.Actors {
			w.str(a.Name)
			w.u32(uint32(len(a.In)))
			for _, id := range a.In {
				w.u16(id)
			}
			w.u32(uint32(len(a.Out)))
			for _, id := range a.Out {
				w.u16(id)
			}
		}
	}
	w.u32(uint32(len(s.Edges)))
	for _, e := range s.Edges {
		w.u16(e.ID)
		w.str(e.Name)
		w.u8(e.Mode)
		w.u32(e.Bytes)
		w.u8(e.Protocol)
		w.u32(e.Capacity)
		w.u32(e.Delay)
		w.u32(e.Block)
		var flags byte
		if e.SameProc {
			flags |= 1
		}
		if e.Out {
			flags |= 2
		}
		if e.In {
			flags |= 4
		}
		if e.SuppressAck {
			flags |= 8
		}
		w.u8(flags)
		w.u32(uint32(int32(e.Peer)))
	}
	ids := make([]int, 0, len(s.Preload))
	for id := range s.Preload {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	w.u32(uint32(len(ids)))
	for _, id := range ids {
		w.u16(uint16(id))
		payloads := s.Preload[uint16(id)]
		w.u32(uint32(len(payloads)))
		for _, p := range payloads {
			w.bytes(p)
		}
	}
}

func decodeSpec(r *reader) *spi.PartitionSpec {
	s := &spi.PartitionSpec{
		Graph:   r.str(),
		Block:   int(r.u32()),
		Node:    int(r.u32()),
		Workers: int(r.u32()),
	}
	for n := r.count(4); n > 0; n-- {
		s.Addrs = append(s.Addrs, r.str())
	}
	if s.BaseIter, s.Iterations = r.iterRange(); r.err != nil {
		return s
	}
	for n := r.count(8); n > 0; n-- {
		p := spi.PartProc{Proc: int(r.u32())}
		for na := r.count(12); na > 0; na-- {
			a := spi.PartActor{Name: r.str()}
			for ni := r.count(2); ni > 0; ni-- {
				a.In = append(a.In, r.u16())
			}
			for no := r.count(2); no > 0; no-- {
				a.Out = append(a.Out, r.u16())
			}
			p.Actors = append(p.Actors, a)
		}
		s.Procs = append(s.Procs, p)
	}
	for n := r.count(29); n > 0; n-- {
		e := spi.PartEdge{
			ID:       r.u16(),
			Name:     r.str(),
			Mode:     r.u8(),
			Bytes:    r.u32(),
			Protocol: r.u8(),
			Capacity: r.u32(),
			Delay:    r.u32(),
			Block:    r.u32(),
		}
		flags := r.u8()
		e.SameProc = flags&1 != 0
		e.Out = flags&2 != 0
		e.In = flags&4 != 0
		e.SuppressAck = flags&8 != 0
		e.Peer = int(int32(r.u32()))
		s.Edges = append(s.Edges, e)
	}
	s.Preload = map[uint16][][]byte{}
	for n := r.count(6); n > 0; n-- {
		id := r.u16()
		payloads := make([][]byte, 0, r.count(4))
		for cap(payloads) > len(payloads) {
			payloads = append(payloads, r.bytes())
		}
		if r.err != nil {
			return s
		}
		s.Preload[id] = payloads
	}
	return s
}

// DecodeCtrl parses one CTRL frame (op byte plus payload) into its typed
// message. Every malformed input returns an error; the decoder never
// panics — FuzzDecodeCtrl enforces this.
func DecodeCtrl(op byte, payload []byte) (any, error) {
	r := &reader{b: payload}
	var msg any
	switch op {
	case OpRegister:
		msg = Register{Name: r.str()}
	case OpWelcome:
		msg = Welcome{ID: r.u32()}
	case OpPrepare:
		msg = Prepare{Epoch: r.u32()}
	case OpReady:
		msg = Ready{Epoch: r.u32(), Addr: r.str()}
	case OpTask:
		t := Task{Epoch: r.u32()}
		t.Spec = decodeSpec(r)
		msg = t
	case OpDone:
		d := Done{Epoch: r.u32(), Digests: map[string]uint64{},
			Tails: map[uint16][][]byte{}, Firings: map[string]uint32{}}
		for n := r.count(12); n > 0; n-- {
			k := r.str()
			d.Digests[k] = r.u64()
			if r.err != nil {
				return nil, r.err
			}
		}
		for n := r.count(6); n > 0; n-- {
			id := r.u16()
			payloads := make([][]byte, 0, r.count(4))
			for cap(payloads) > len(payloads) {
				payloads = append(payloads, r.bytes())
			}
			if r.err != nil {
				return nil, r.err
			}
			d.Tails[id] = payloads
		}
		for n := r.count(8); n > 0; n-- {
			k := r.str()
			d.Firings[k] = r.u32()
			if r.err != nil {
				return nil, r.err
			}
		}
		for n := r.count(8); n > 0; n-- {
			d.ProcNS = append(d.ProcNS, int64(r.u64()))
		}
		msg = d
	case OpFail:
		msg = Fail{Epoch: r.u32(), Msg: r.str()}
	case OpAbort:
		msg = Abort{Epoch: r.u32()}
	case OpAbortOK:
		msg = AbortOK{Epoch: r.u32()}
	case OpShutdown:
		msg = Shutdown{}
	case OpContinue:
		c := Continue{Epoch: r.u32()}
		c.BaseIter, c.Iterations = r.iterRange()
		msg = c
	default:
		return nil, fmt.Errorf("orch: unknown control opcode %d", op)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return msg, nil
}
