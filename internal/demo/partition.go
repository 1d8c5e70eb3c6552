package demo

import (
	"sync"

	"repro/internal/dataflow"
	"repro/internal/spi"
)

// PartSinks accumulates the sink digest contributions of one execution
// epoch. The per-iteration fold is XOR of an iteration-salted product, so
// contributions are order-independent and compose across epochs, workers,
// and re-executions: XOR-ing every committed epoch's contribution equals
// the digest of the unpartitioned run.
type PartSinks struct {
	mu      sync.Mutex
	digests map[string]uint64
}

// Take snapshots and resets the accumulated contributions — called once
// per completed epoch, so an aborted epoch's partial contributions are
// discarded by the next Take's caller simply never committing them.
func (s *PartSinks) Take() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.digests
	s.digests = map[string]uint64{}
	return out
}

// PartKernels builds the deterministic demo kernels for one partition
// spec, byte-identical to Kernels over the full graph: the hash folds the
// graph name, actor name, global iteration, seed, and every input edge in
// ascending edge-ID order, and outputs are xorshift-filled from the same
// per-edge seeds. Actors with no output edges fold into sinks. Because
// every PartActor carries its complete edge lists, sink detection and
// input ordering need no graph.
func PartKernels(spec *spi.PartitionSpec, seed uint64) (map[string]spi.Kernel, *PartSinks) {
	edges := map[uint16]*spi.PartEdge{}
	for i := range spec.Edges {
		edges[spec.Edges[i].ID] = &spec.Edges[i]
	}
	sinks := &PartSinks{digests: map[string]uint64{}}
	kernels := map[string]spi.Kernel{}
	for pi := range spec.Procs {
		for ai := range spec.Procs[pi].Actors {
			a := &spec.Procs[pi].Actors[ai]
			name := a.Name
			var ins []inPort
			for _, id := range a.In {
				ins = append(ins, newInPort(dataflow.EdgeID(id), edges[id].Name))
			}
			var outs []outPort
			for _, id := range a.Out {
				e := edges[id]
				outs = append(outs, newOutPort(dataflow.EdgeID(id), int(e.Bytes), e.Mode == uint8(spi.Dynamic)))
			}
			kernels[name] = newKernel(spec.Graph, name, seed, ins, outs, func(fold uint64) {
				sinks.mu.Lock()
				sinks.digests[name] ^= fold
				sinks.mu.Unlock()
			})
		}
	}
	return kernels, sinks
}
