package spi

import (
	"fmt"
	"sync"

	"repro/internal/dataflow"
)

// Kernel plumbing for fissioned graphs (dataflow.Fission). The rewrite
// is ID-stable, so every non-fissioned actor's kernel runs unchanged;
// this file supplies the three new stages:
//
//   - the scatter stage (the fissioned actor's reused node) broadcasts
//     each input payload to the replicas,
//   - each replica computes its share,
//   - the gather stage reassembles the replica chunks in order, so
//     downstream actors see byte-identical payloads.
//
// The replicas replicate transparently: every replica runs the original
// kernel on the full inputs, and emits only its SplitCounts chunk of each
// output. That does k-times the compute — no speedup — but it is
// semantics-preserving for ANY kernel, which is what the digest smokes
// verify: the plumbing (scatter/gather edges, placement, transports, chaos
// recovery) is exercised end to end with bit-identical sink digests.
// Kernels must treat a nil input and an empty input identically (the
// scatter stage forwards a delayed edge's nil payload as an empty chunk).

// FissionKernels builds the kernel set for plan.Graph from the kernel
// set of plan.Source: non-fissioned kernels are reused as-is (the
// rewrite preserves their actor and edge IDs), and the scatter, replica,
// and gather stages are synthesized around the fissioned actor's kernel.
func FissionKernels(plan *dataflow.FissionPlan, kernels map[dataflow.ActorID]Kernel) (map[dataflow.ActorID]Kernel, error) {
	src := plan.Source
	orig := kernels[plan.Actor]
	if orig == nil {
		return nil, fmt.Errorf("spi: fission of %q needs the actor's kernel", src.Actor(plan.Actor).Name)
	}

	out := make(map[dataflow.ActorID]Kernel, len(kernels)+plan.K+1)
	for id, k := range kernels {
		if id == plan.Actor {
			continue
		}
		out[id] = k
	}

	k := plan.K
	ins := append([]dataflow.EdgeID(nil), src.In(plan.Actor)...)
	outs := append([]dataflow.EdgeID(nil), src.Out(plan.Actor)...)

	// Scatter: broadcast each input payload. Returning input aliases is
	// allowed by the Kernel contract (sends complete before the executor
	// reuses the buffers).
	out[plan.Scatter] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		o := make(map[dataflow.EdgeID][]byte, len(ins)*k)
		for _, eid := range ins {
			for _, id := range plan.ScatterEdges[eid] {
				o[id] = in[eid]
			}
		}
		return o, nil
	}

	// Replicas. They all fire the one original kernel, which may return the
	// same buffers from every firing (DESIGN.md §15): origMu makes each
	// firing and the copy of its chunk one step.
	var origMu sync.Mutex
	for i := 0; i < k; i++ {
		i := i
		out[plan.Replicas[i]] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			srcIn := make(map[dataflow.EdgeID][]byte, len(ins))
			for _, eid := range ins {
				srcIn[eid] = in[plan.ScatterEdges[eid][i]]
			}
			origMu.Lock()
			defer origMu.Unlock()
			srcOut, err := orig(iter, srcIn)
			if err != nil {
				return nil, fmt.Errorf("spi: fission replica %d of %q: %w", i, src.Actor(plan.Actor).Name, err)
			}
			// The replica computed the full output; keep only (a copy of)
			// this replica's chunk.
			o := make(map[dataflow.EdgeID][]byte, len(outs))
			for _, eid := range outs {
				o[plan.GatherEdges[eid][i]] = append([]byte(nil), SplitPayload(srcOut[eid], src.Edge(eid).TokenBytes, k)[i]...)
			}
			return o, nil
		}
	}

	// Gather: reassemble each output stream in replica order.
	out[plan.Gather] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		o := make(map[dataflow.EdgeID][]byte, len(outs))
		for _, eid := range outs {
			chunks := make([][]byte, k)
			for i, gid := range plan.GatherEdges[eid] {
				chunks[i] = in[gid]
			}
			o[eid] = ConcatChunks(chunks)
		}
		return o, nil
	}
	return out, nil
}

// SplitPayload chunks one packed payload token-wise over k workers:
// worker i receives dataflow.SplitCounts(tokens, k)[i] whole tokens of
// tokenBytes each, contiguous and in order, and any trailing partial
// token (a dynamic byte stream whose length is not a multiple of the
// token size) rides with the last worker. Concatenating the chunks in
// worker order always reproduces the payload byte for byte — including
// the uneven tail when the token count is not divisible by k, which the
// last worker absorbs. Chunks may be empty (tokens < k); empty chunks
// are valid dynamic payloads.
func SplitPayload(p []byte, tokenBytes, k int) [][]byte {
	if tokenBytes <= 0 {
		tokenBytes = 1
	}
	chunks := make([][]byte, k)
	if k <= 0 {
		return chunks
	}
	counts := dataflow.SplitCounts(len(p)/tokenBytes, k)
	off := 0
	for i := 0; i < k; i++ {
		end := off + counts[i]*tokenBytes
		if i == k-1 {
			end = len(p) // uneven tail and partial-token bytes
		}
		chunks[i] = p[off:end]
		off = end
	}
	return chunks
}

// ConcatChunks reassembles chunks produced by SplitPayload (or by the
// replica workers of a fissioned actor) in worker order.
func ConcatChunks(chunks [][]byte) []byte {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	out := make([]byte, 0, n)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}
