package dataflow

import (
	"strings"
	"testing"
)

// vecCycle: A -(2)->(1)- B with a feedback edge carrying 16 tokens of
// delay. q = [1, 2], so ba moves 2 tokens per iteration and the delay is
// worth 8 iterations: blocks 2, 4, and 8 are decoupled, everything else
// above 1 deadlocks.
func vecCycle() *Graph {
	g := New("cyc")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 2, 1, EdgeSpec{TokenBytes: 2})
	g.AddEdge("ba", b, a, 1, 2, EdgeSpec{TokenBytes: 1, Delay: 16})
	return g
}

func TestDelayIterations(t *testing.T) {
	g := vecCycle()
	q, err := g.RepetitionsVector()
	if err != nil {
		t.Fatal(err)
	}
	if d := g.DelayIterations(q, 0); d != 0 {
		t.Errorf("ab delay iterations = %d, want 0", d)
	}
	if d := g.DelayIterations(q, 1); d != 8 {
		t.Errorf("ba delay iterations = %d, want 8 (16 tokens / 2 per iteration)", d)
	}
}

func TestBlockDecouples(t *testing.T) {
	g := vecCycle()
	q, _ := g.RepetitionsVector()
	for _, tc := range []struct {
		edge  EdgeID
		block int
		want  bool
	}{
		{1, 1, true},   // scalar always decoupled
		{1, 2, true},   // 8 % 2 == 0
		{1, 4, true},   // 8 % 4 == 0
		{1, 8, true},   // exactly one block of delay
		{1, 3, false},  // 8 % 3 != 0: block k would need part of block k's own output
		{1, 16, false}, // delay smaller than one block
		{0, 2, false},  // no delay at all
	} {
		if got := g.BlockDecouples(q, tc.edge, tc.block); got != tc.want {
			t.Errorf("BlockDecouples(edge %d, block %d) = %v, want %v", tc.edge, tc.block, got, tc.want)
		}
	}
}

func TestCheckBlock(t *testing.T) {
	g := vecCycle()
	for _, block := range []int{0, 1, 2, 4, 8} {
		if err := g.CheckBlock(block); err != nil {
			t.Errorf("block %d should be feasible: %v", block, err)
		}
	}
	for _, block := range []int{3, 5, 16} {
		err := g.CheckBlock(block)
		if err == nil {
			t.Errorf("block %d should deadlock the A-B cycle", block)
			continue
		}
		if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "A") {
			t.Errorf("block %d: diagnosis %q should name the deadlock and the stuck actors", block, err)
		}
	}
}

func TestCheckBlockAcyclicUnbounded(t *testing.T) {
	g := New("dag")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	g.AddEdge("ab", a, b, 1, 2, EdgeSpec{})
	g.AddEdge("bc", b, c, 3, 2, EdgeSpec{})
	for _, block := range []int{2, 7, 64, 1000} {
		if err := g.CheckBlock(block); err != nil {
			t.Errorf("acyclic graph rejects block %d: %v", block, err)
		}
	}
}

func TestBlockMemoryBytes(t *testing.T) {
	g := vecCycle()
	q, _ := g.RepetitionsVector()
	// ab: B*2 tokens * 2 bytes; ba: (B*2 + 16 delay) * 1 byte = 6B + 16.
	for _, tc := range []struct {
		block int
		want  int64
	}{
		{1, 22},
		{2, 28},
		{4, 40},
		{8, 64},
	} {
		if got := g.BlockMemoryBytes(q, tc.block); got != tc.want {
			t.Errorf("BlockMemoryBytes(block %d) = %d, want %d", tc.block, got, tc.want)
		}
	}
}

func TestVectorizePicksLargestFeasible(t *testing.T) {
	g := vecCycle()
	plan, err := Vectorize(g, 0, 0) // unbounded memory, default max block
	if err != nil {
		t.Fatal(err)
	}
	if plan.Block != 8 {
		t.Fatalf("Block = %d, want 8 (largest divisor-aligned delay cover)", plan.Block)
	}
	if plan.Factors[0] != 8 || plan.Factors[1] != 16 {
		t.Errorf("Factors = %v, want Block*q = [8 16]", plan.Factors)
	}
	if plan.MemoryBytes != 64 {
		t.Errorf("MemoryBytes = %d, want 64", plan.MemoryBytes)
	}
}

func TestVectorizeRespectsMemoryBound(t *testing.T) {
	g := vecCycle()
	// 39 bytes rules out blocks 8 (64) and 4 (40); block 2 costs 28.
	plan, err := Vectorize(g, 39, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Block != 2 {
		t.Errorf("Block = %d, want 2 under a 39-byte bound", plan.Block)
	}
	if plan.MemoryBytes > 39 {
		t.Errorf("MemoryBytes = %d exceeds the bound", plan.MemoryBytes)
	}
}

func TestVectorizeRespectsMaxBlock(t *testing.T) {
	g := vecCycle()
	plan, err := Vectorize(g, 0, 5) // 5 and 3 deadlock, 4 is feasible
	if err != nil {
		t.Fatal(err)
	}
	if plan.Block != 4 {
		t.Errorf("Block = %d, want 4 with maxBlock 5", plan.Block)
	}
}

func TestVectorizeScalarFallback(t *testing.T) {
	// A tight cycle with exactly one iteration of delay admits no block
	// above 1.
	g := New("tight")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 1, 1, EdgeSpec{})
	g.AddEdge("ba", b, a, 1, 1, EdgeSpec{Delay: 1})
	plan, err := Vectorize(g, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Block != 1 {
		t.Errorf("Block = %d, want scalar fallback 1", plan.Block)
	}
	if plan.Factors[0] != plan.Q[0] {
		t.Errorf("scalar factors %v should equal q %v", plan.Factors, plan.Q)
	}
}

// Property-style sweep: on random consistent graphs every block Vectorize
// chooses must pass its own feasibility and memory checks.
func TestVectorizeRandomGraphsSelfConsistent(t *testing.T) {
	spec := DefaultRandomSpec()
	for seed := uint64(0); seed < 40; seed++ {
		g, err := Random(spec, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bound := int64(4096)
		plan, err := Vectorize(g, bound, 16)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := g.CheckBlock(plan.Block); err != nil {
			t.Errorf("seed %d: chose infeasible block %d: %v", seed, plan.Block, err)
		}
		if plan.Block > 1 && plan.MemoryBytes > bound {
			t.Errorf("seed %d: block %d memory %d exceeds bound %d", seed, plan.Block, plan.MemoryBytes, bound)
		}
		for a, r := range plan.Q {
			if plan.Factors[a] != int64(plan.Block)*r {
				t.Errorf("seed %d: factor[%d] = %d, want %d*%d", seed, a, plan.Factors[a], plan.Block, r)
			}
		}
	}
}
