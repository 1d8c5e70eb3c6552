package sched

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataflow"
)

func TestBlockedSASLeafCounts(t *testing.T) {
	g := cdChain()
	q, _ := g.RepetitionsVector() // [4 2 3]
	sas, err := SingleAppearanceSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	blocked := BlockedSAS(sas, 4)
	if blocked.Appearances() != 3 {
		t.Errorf("blocking must not duplicate actors: appearances = %d", blocked.Appearances())
	}
	var total int64
	for _, r := range q {
		total += r
	}
	if got := int64(len(blocked.Flatten())); got != 4*total {
		t.Errorf("blocked flatten fires %d times, want 4 * %d", got, total)
	}
	firings := notationFirings(t, blocked.Notation(g))
	for a, r := range q {
		name := g.Actor(dataflow.ActorID(a)).Name
		if firings[name] != 4*r {
			t.Errorf("%s fires %d times in %q, want %d", name, firings[name], blocked.Notation(g), 4*r)
		}
	}
}

func TestBlockedSASIdentityAtOne(t *testing.T) {
	g := cdChain()
	sas, _ := SingleAppearanceSchedule(g)
	if BlockedSAS(sas, 1) != sas || BlockedSAS(sas, 0) != sas {
		t.Error("block <= 1 should return the tree unchanged")
	}
	if BlockedSAS(nil, 4) != nil {
		t.Error("nil tree should stay nil")
	}
}

func TestBlockedSASMemoryGrows(t *testing.T) {
	g := cdChain()
	sas, _ := SingleAppearanceSchedule(g)
	m1, err := SASBufferMemory(g, BlockedSAS(sas, 1))
	if err != nil {
		t.Fatal(err)
	}
	m4, err := SASBufferMemory(g, BlockedSAS(sas, 4))
	if err != nil {
		t.Fatal(err)
	}
	if m4 <= m1 {
		t.Errorf("memory should grow with the block: m1=%d m4=%d", m1, m4)
	}
}

func TestPickBlockUnboundedDAG(t *testing.T) {
	g := cdChain()
	b, blocked, err := PickBlock(g, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b != 8 {
		t.Fatalf("an acyclic graph with no memory bound should take the max block: got %d", b)
	}
	ok, err := g.ScheduleReturnsToInitialState(blocked.Flatten())
	if err != nil || !ok {
		t.Errorf("blocked SAS is not a valid schedule: ok=%v err=%v", ok, err)
	}
}

func TestPickBlockMemoryBound(t *testing.T) {
	g := cdChain()
	sas, _ := SingleAppearanceSchedule(g)
	const maxBlock = 8
	bound, err := SASBufferMemory(g, BlockedSAS(sas, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Expected answer: the largest block whose memory fits the bound.
	want := 1
	for b := maxBlock; b > 1; b-- {
		if m, err := SASBufferMemory(g, BlockedSAS(sas, int64(b))); err == nil && m <= bound {
			want = b
			break
		}
	}
	b, blocked, err := PickBlock(g, bound, maxBlock)
	if err != nil {
		t.Fatal(err)
	}
	if b != want {
		t.Errorf("PickBlock under %d bytes = %d, want %d", bound, b, want)
	}
	if m, err := SASBufferMemory(g, BlockedSAS(sas, int64(b))); err != nil || m > bound {
		t.Errorf("chosen block %d costs %d bytes (err %v), bound %d", b, m, err, bound)
	}
	if blocked == nil {
		t.Fatal("no schedule returned")
	}
}

func TestPickBlockFeedbackDivisors(t *testing.T) {
	// Cycle with 8 iterations of feedback delay: feasible blocks are 2, 4,
	// and 8 only.
	g := dataflow.New("cyc")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 2, 1, dataflow.EdgeSpec{TokenBytes: 2})
	g.AddEdge("ba", b, a, 1, 2, dataflow.EdgeSpec{TokenBytes: 1, Delay: 16})
	blk, blocked, err := PickBlock(g, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if blk != 8 {
		t.Fatalf("PickBlock = %d, want 8 (delay covers exactly one block of 8)", blk)
	}
	ok, err := g.ScheduleReturnsToInitialState(blocked.Flatten())
	if err != nil || !ok {
		t.Errorf("blocked cycle schedule invalid: ok=%v err=%v", ok, err)
	}
}

func TestPickBlockScalarFallback(t *testing.T) {
	g := dataflow.New("tight")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	g.AddEdge("ab", a, b, 1, 1, dataflow.EdgeSpec{})
	g.AddEdge("ba", b, a, 1, 1, dataflow.EdgeSpec{Delay: 1})
	blk, blocked, err := PickBlock(g, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if blk != 1 {
		t.Errorf("one iteration of cycle delay admits no block: got %d", blk)
	}
	if blocked.Appearances() != 2 {
		t.Errorf("fallback should be the plain SAS")
	}
}

// notationFirings parses standard looped notation — "(2 (3 A) B)" — and
// returns total firings per actor name: each name's leaf count times the
// product of enclosing loop counts. Counts are bare integers directly
// after "("; anything else is an actor name.
func notationFirings(t *testing.T, nota string) map[string]int64 {
	t.Helper()
	nota = strings.ReplaceAll(nota, "(", " ( ")
	nota = strings.ReplaceAll(nota, ")", " ) ")
	toks := strings.Fields(nota)
	mult := []int64{1}
	firings := map[string]int64{}
	for i := 0; i < len(toks); i++ {
		switch tok := toks[i]; tok {
		case "(":
			i++
			if i >= len(toks) {
				t.Fatalf("notation %q ends inside a loop header", nota)
			}
			n, err := strconv.ParseInt(toks[i], 10, 64)
			if err != nil {
				t.Fatalf("notation %q: %q after '(' is not a loop count", nota, toks[i])
			}
			mult = append(mult, mult[len(mult)-1]*n)
		case ")":
			if len(mult) == 1 {
				t.Fatalf("notation %q: unbalanced ')'", nota)
			}
			mult = mult[:len(mult)-1]
		default:
			firings[tok] += mult[len(mult)-1]
		}
	}
	if len(mult) != 1 {
		t.Fatalf("notation %q: unbalanced '('", nota)
	}
	return firings
}
