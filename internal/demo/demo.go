// Package demo provides the deterministic demo kernels and the
// assignment-list mapping shared by the runnable commands (spinode,
// spiload): every output byte is a pure function of the graph, seed,
// actor, iteration, and inputs, so any partition of the graph — across
// processors, nodes, or sessions — produces bit-identical sink digests.
package demo

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/vts"
)

// Mapping builds a sched.Mapping from a processor-per-actor assignment
// list in graph actor order. Every processor index up to the maximum
// must host at least one actor.
func Mapping(g *dataflow.Graph, assign []int) (*sched.Mapping, error) {
	actors := g.Actors()
	if len(assign) != len(actors) {
		return nil, fmt.Errorf("assignment lists %d processors for %d actors", len(assign), len(actors))
	}
	numProcs := 0
	for _, p := range assign {
		if p < 0 {
			return nil, fmt.Errorf("negative processor %d", p)
		}
		if p+1 > numProcs {
			numProcs = p + 1
		}
	}
	m := &sched.Mapping{
		NumProcs: numProcs,
		Proc:     make([]sched.Processor, len(actors)),
		Order:    make([][]dataflow.ActorID, numProcs),
	}
	for i, a := range actors {
		p := assign[i]
		m.Proc[a] = sched.Processor(p)
		m.Order[p] = append(m.Order[p], a)
	}
	for p := 0; p < numProcs; p++ {
		if len(m.Order[p]) == 0 {
			return nil, fmt.Errorf("processor %d has no actors", p)
		}
	}
	return m, nil
}

// Sinks returns a fresh digest slot per sink actor (no output edges),
// keyed by actor name — the map Kernels folds results into.
func Sinks(g *dataflow.Graph) map[string]*uint64 {
	digests := map[string]*uint64{}
	for _, a := range g.Actors() {
		if len(g.Out(a)) == 0 {
			digests[g.Actor(a).Name] = new(uint64)
		}
	}
	return digests
}

// Kernels builds deterministic kernels for an arbitrary graph: each
// actor's output on every edge is a pseudo-random (seeded, reproducible)
// byte string derived from the actor, iteration, and its inputs; actors
// without outputs fold their inputs into a digest under mu. Because
// every byte is a pure function of the graph and seed, any partition of
// the graph produces the same digests.
func Kernels(g *dataflow.Graph, seed uint64, digests map[string]*uint64, mu *sync.Mutex) (map[dataflow.ActorID]spi.Kernel, error) {
	kernels := map[dataflow.ActorID]spi.Kernel{}
	for _, a := range g.Actors() {
		name := g.Actor(a).Name
		var ins []inPort
		for _, eid := range g.In(a) {
			ins = append(ins, newInPort(eid, g.Edge(eid).Name))
		}
		var outs []outPort
		for _, eid := range g.Out(a) {
			info, err := vts.EdgeOf(g.Edge(eid))
			if err != nil {
				return nil, err
			}
			outs = append(outs, newOutPort(eid, int(info.BMax), info.Dynamic))
		}
		kernels[a] = newKernel(g.Name(), name, seed, ins, outs, func(fold uint64) {
			mu.Lock()
			*digests[name] ^= fold
			mu.Unlock()
		})
	}
	return kernels, nil
}

// inPort is one input edge as a kernel hashes it: the "|name:" tag that
// precedes its payload.
type inPort struct {
	id  dataflow.EdgeID
	tag []byte
}

func newInPort(id dataflow.EdgeID, name string) inPort {
	return inPort{id: id, tag: []byte("|" + name + ":")}
}

// outPort is one output edge: its token bound, whether the token size
// varies, and the buffer every firing fills and returns.
type outPort struct {
	id      dataflow.EdgeID
	dynamic bool
	buf     []byte
}

func newOutPort(id dataflow.EdgeID, bytes int, dynamic bool) outPort {
	return outPort{id: id, dynamic: dynamic, buf: make([]byte, bytes)}
}

// FNV-1a, 64 bit: hash/fnv's function without the allocated hash.Hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// newKernel is the one demo kernel, shared by Kernels and PartKernels. A
// firing hashes "graph|actor|iter|seed" and then, in ascending edge-ID
// order, "|edge:" and the payload of every input; a sink hands sink its
// iteration-salted contribution, any other actor fills each output with an
// xorshift stream seeded by the hash and the edge ID. Everything a firing
// needs is laid out here, once: the hashed prefix and tags as bytes, the
// inputs sorted, the output map and its buffers — which every firing
// returns, as the Kernel contract allows (DESIGN.md §15: an output is the
// kernel's to reuse when the actor fires again). So one kernel must not be
// fired from two goroutines at once.
func newKernel(graph, actor string, seed uint64, ins []inPort, outs []outPort, sink func(fold uint64)) spi.Kernel {
	slices.SortFunc(ins, func(a, b inPort) int { return cmp.Compare(a.id, b.id) })
	prefix := []byte(graph + "|" + actor + "|")
	suffix := strconv.AppendUint([]byte{'|'}, seed, 10)
	out := make(map[dataflow.EdgeID][]byte, len(outs))
	return func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		var num [20]byte
		state := fnvAdd(fnvOffset, prefix)
		state = fnvAdd(state, strconv.AppendInt(num[:0], int64(iter), 10))
		state = fnvAdd(state, suffix)
		for _, p := range ins {
			state = fnvAdd(fnvAdd(state, p.tag), in[p.id])
		}
		if len(outs) == 0 {
			sink(state * uint64(iter*2654435761+1))
			return nil, nil
		}
		for _, p := range outs {
			n := len(p.buf)
			if p.dynamic && n > 1 {
				n = 1 + int(state%uint64(n))
			}
			buf := p.buf[:n]
			s := state ^ uint64(p.id)
			for i := range buf {
				// xorshift64 fill: cheap, reproducible.
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				buf[i] = byte(s)
			}
			out[p.id] = buf
		}
		return out, nil
	}
}
