package spi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/sched"
)

// mapped chain A -> B -> C across two processors.
func executeChain(t *testing.T) (*dataflow.Graph, *sched.Mapping) {
	t.Helper()
	g := dataflow.New("chain")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	g.AddEdge("ab", a, b, 8, 8, dataflow.EdgeSpec{TokenBytes: 1})
	g.AddEdge("bc", b, c, 8, 8, dataflow.EdgeSpec{TokenBytes: 1})
	m := &sched.Mapping{
		NumProcs: 2,
		Proc:     []sched.Processor{0, 1, 1},
		Order:    [][]dataflow.ActorID{{a}, {b, c}},
	}
	return g, m
}

func TestExecutePipeline(t *testing.T) {
	g, m := executeChain(t)
	var results []byte
	kernels := map[dataflow.ActorID]Kernel{
		0: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			out := make([]byte, 8)
			for i := range out {
				out[i] = byte(iter)
			}
			return map[dataflow.EdgeID][]byte{0: out}, nil
		},
		1: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			data := in[0]
			out := make([]byte, len(data))
			for i, v := range data {
				out[i] = v * 2
			}
			return map[dataflow.EdgeID][]byte{1: out}, nil
		},
		2: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			results = append(results, in[1][0])
			return nil, nil
		},
	}
	st, err := Execute(g, m, kernels, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %v", results)
	}
	for iter, v := range results {
		if v != byte(iter*2) {
			t.Errorf("iteration %d result %d, want %d", iter, v, iter*2)
		}
	}
	// Only the A->B edge crosses processors: 5 messages.
	if st.SPI.Messages != 5 {
		t.Errorf("SPI messages = %d, want 5", st.SPI.Messages)
	}
	if st.LocalTransfers != 5 {
		t.Errorf("local transfers = %d, want 5", st.LocalTransfers)
	}
}

func TestExecuteValidation(t *testing.T) {
	g, m := executeChain(t)
	kernels := map[dataflow.ActorID]Kernel{}
	if _, err := Execute(g, m, kernels, 5); err == nil {
		t.Error("missing kernels should fail")
	}
	full := map[dataflow.ActorID]Kernel{
		0: nopKernel, 1: nopKernel, 2: nopKernel,
	}
	if _, err := Execute(g, m, full, 0); err == nil {
		t.Error("0 iterations should fail")
	}
}

func nopKernel(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
	return nil, nil
}

func TestExecuteKernelErrorPropagates(t *testing.T) {
	g, m := executeChain(t)
	boom := errors.New("boom")
	kernels := map[dataflow.ActorID]Kernel{
		0: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			if iter == 2 {
				return nil, boom
			}
			return map[dataflow.EdgeID][]byte{0: make([]byte, 8)}, nil
		},
		1: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			return map[dataflow.EdgeID][]byte{1: make([]byte, 8)}, nil
		},
		2: nopKernel,
	}
	_, err := Execute(g, m, kernels, 5)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestExecuteBoundViolation(t *testing.T) {
	g := dataflow.New("dyn")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 8, 8, dataflow.EdgeSpec{
		ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 1,
	})
	m := &sched.Mapping{
		NumProcs: 2, Proc: []sched.Processor{0, 1},
		Order: [][]dataflow.ActorID{{a}, {b}},
	}
	kernels := map[dataflow.ActorID]Kernel{
		a: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			return map[dataflow.EdgeID][]byte{0: make([]byte, 9)}, nil // > b_max 8
		},
		b: nopKernel,
	}
	if _, err := Execute(g, m, kernels, 1); err == nil {
		t.Fatal("bound violation should fail")
	}
}

func TestExecuteDynamicVariableSizes(t *testing.T) {
	g := dataflow.New("dyn")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 64, 64, dataflow.EdgeSpec{
		ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 1,
	})
	m := &sched.Mapping{
		NumProcs: 2, Proc: []sched.Processor{0, 1},
		Order: [][]dataflow.ActorID{{a}, {b}},
	}
	var sizes []int
	kernels := map[dataflow.ActorID]Kernel{
		a: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			return map[dataflow.EdgeID][]byte{0: make([]byte, iter*7%65)}, nil
		},
		b: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			sizes = append(sizes, len(in[0]))
			return nil, nil
		},
	}
	if _, err := Execute(g, m, kernels, 6); err != nil {
		t.Fatal(err)
	}
	for iter, got := range sizes {
		if got != iter*7%65 {
			t.Errorf("iteration %d: size %d, want %d", iter, got, iter*7%65)
		}
	}
}

func TestExecuteDelayedFeedback(t *testing.T) {
	// A <-> B with a delayed feedback edge: B's output for iteration k
	// reaches A at iteration k+1; the preloaded delay message unblocks
	// iteration 0.
	g := dataflow.New("fb")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	fwd := g.AddEdge("ab", a, b, 4, 4, dataflow.EdgeSpec{TokenBytes: 1})
	back := g.AddEdge("ba", b, a, 4, 4, dataflow.EdgeSpec{TokenBytes: 1, Delay: 4})
	m := &sched.Mapping{
		NumProcs: 2, Proc: []sched.Processor{0, 1},
		Order: [][]dataflow.ActorID{{a}, {b}},
	}
	var echoes []uint32
	kernels := map[dataflow.ActorID]Kernel{
		a: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			if len(in[back]) == 4 {
				echoes = append(echoes, binary.LittleEndian.Uint32(in[back]))
			}
			out := make([]byte, 4)
			binary.LittleEndian.PutUint32(out, uint32(iter+100))
			return map[dataflow.EdgeID][]byte{fwd: out}, nil
		},
		b: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			return map[dataflow.EdgeID][]byte{back: in[fwd]}, nil
		},
	}
	if _, err := Execute(g, m, kernels, 4); err != nil {
		t.Fatal(err)
	}
	// Iteration 0 sees the preloaded (zero) message; iterations 1..3 see
	// B's echo of iterations 0..2.
	want := []uint32{0, 100, 101, 102}
	if fmt.Sprint(echoes) != fmt.Sprint(want) {
		t.Errorf("echoes = %v, want %v", echoes, want)
	}
}

// TestExecuteLocalDelayedEdgeRecycledOutput: a producer that hands over the
// same output buffer at every firing (the Kernel contract allows it) on a
// delayed edge to a consumer on its own processor. The token waits in the
// local queue across the producer's next firing, so the queue must hold a
// copy: the consumer has to see what a producer with a fresh buffer per
// firing shows it, not the following iteration's bytes.
func TestExecuteLocalDelayedEdgeRecycledOutput(t *testing.T) {
	g := dataflow.New("delayed-local")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	ab := g.AddEdge("ab", a, b, 1, 1, dataflow.EdgeSpec{TokenBytes: 1, Delay: 1})
	m := &sched.Mapping{NumProcs: 1, Proc: []sched.Processor{0, 0}, Order: [][]dataflow.ActorID{{a, b}}}
	seen := func(recycle bool) string {
		buf := make([]byte, 1)
		out := map[dataflow.EdgeID][]byte{}
		var got []byte
		kernels := map[dataflow.ActorID]Kernel{
			a: func(iter int, _ map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
				if !recycle {
					buf = make([]byte, 1)
				}
				buf[0] = byte(iter + 1)
				out[ab] = buf
				return out, nil
			},
			b: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
				var v byte // stays 0 for the empty delay token
				if len(in[ab]) > 0 {
					v = in[ab][0]
				}
				got = append(got, v)
				return nil, nil
			},
		}
		if _, err := Execute(g, m, kernels, 6); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(got)
	}
	fresh, recycled := seen(false), seen(true)
	if fresh != "[0 1 2 3 4 5]" {
		t.Fatalf("fresh buffers: consumer saw %s", fresh)
	}
	if recycled != fresh {
		t.Errorf("recycled output buffer: consumer saw %s, with fresh buffers %s", recycled, fresh)
	}
}

func TestExecuteStaticPayloadsArePadded(t *testing.T) {
	g, m := executeChain(t)
	var got int
	kernels := map[dataflow.ActorID]Kernel{
		0: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			return map[dataflow.EdgeID][]byte{0: {1, 2}}, nil // short: padded to 8
		},
		1: func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			got = len(in[0])
			return map[dataflow.EdgeID][]byte{1: in[0]}, nil
		},
		2: nopKernel,
	}
	if _, err := Execute(g, m, kernels, 1); err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Errorf("padded payload = %d bytes, want 8", got)
	}
}
