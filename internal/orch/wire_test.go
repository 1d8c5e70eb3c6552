package orch

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/demo"
	"repro/internal/signal"
	"repro/internal/spi"
)

// wireMessages is the canonical round-trip corpus: every opcode, with
// populated and empty variants of the container fields.
func wireMessages() []any {
	return []any{
		Register{Name: "w0"},
		Register{Name: ""},
		Welcome{ID: 7},
		Prepare{Epoch: 3},
		Ready{Epoch: 3, Addr: "w0-data-e3"},
		Task{Epoch: 4, Spec: &spi.PartitionSpec{
			Graph: "part", Block: 4, Node: 1, Workers: 3,
			Addrs: []string{"a0", "a1", "a2"}, BaseIter: 20, Iterations: 5,
			Procs: []spi.PartProc{{Proc: 2, Actors: []spi.PartActor{
				{Name: "B", In: []uint16{0}, Out: []uint16{1, 2}},
				{Name: "S", In: []uint16{2}},
			}}},
			Edges: []spi.PartEdge{
				{ID: 0, Name: "ab", Mode: 0, Bytes: 8, Protocol: 0, Capacity: 4,
					Delay: 2, In: true, Peer: 0},
				{ID: 1, Name: "bc", Mode: 1, Bytes: 16, Protocol: 1, Block: 4, Out: true, Peer: 2,
					SuppressAck: true},
				{ID: 2, Name: "bs", SameProc: true, Bytes: 3, Peer: -1},
			},
			Preload: map[uint16][][]byte{
				1: {[]byte{1, 2}, {}},
				2: {nil},
			},
			State: map[string][]byte{"B": {9, 9}, "S": {}},
		}},
		Task{Epoch: 0, Spec: &spi.PartitionSpec{
			Graph: "empty", Workers: 1, Iterations: 1,
			Preload: map[uint16][][]byte{}, State: map[string][]byte{},
		}},
		Done{Epoch: 4,
			Digests: map[string]uint64{"S": 0xdeadbeef},
			Tails:   map[uint16][][]byte{1: {[]byte{5}}, 7: {}},
			State:   map[string][]byte{"B": {1}},
			Firings: map[string]uint32{"B": 5, "S": 5},
			ProcNS:  []int64{1234, 0}},
		Done{Epoch: 9, Digests: map[string]uint64{},
			Tails: map[uint16][][]byte{}, State: map[string][]byte{},
			Firings: map[string]uint32{}},
		Fail{Epoch: 5, Msg: "kernel exploded"},
		Abort{Epoch: 5},
		AbortOK{Epoch: 5},
		Shutdown{},
		Continue{Epoch: 6, BaseIter: 384, Iterations: 64},
	}
}

// TestWireRoundTrip encodes every message type and decodes it back,
// expecting deep equality (nil payloads normalize to empty slices).
func TestWireRoundTrip(t *testing.T) {
	for _, msg := range wireMessages() {
		op, payload := Encode(msg)
		got, err := DecodeCtrl(op, payload)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		want := msg
		// The codec canonicalizes nil byte slices to empty ones.
		if tk, ok := want.(Task); ok {
			for id, ps := range tk.Spec.Preload {
				for i, p := range ps {
					if p == nil {
						tk.Spec.Preload[id][i] = []byte{}
					}
				}
			}
			if tk.Spec.Addrs == nil {
				tk.Spec.Addrs = nil
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T round trip:\n got %#v\nwant %#v", msg, got, want)
		}
	}
}

// builtSpecs compiles partition specs the way a coordinator does, over
// random graphs, processor assignments, placements and blocking factors,
// and fills in what a dispatch adds. Every graph gets one cross-processor
// edge with ten iterations of delay — a whole number of blocks at every
// factor drawn, so blocked edges with a preload are in the corpus — and
// resyncGraph contributes edges the §4 verdict marks.
func builtSpecs(t testing.TB) []*spi.PartitionSpec {
	t.Helper()
	var out []*spi.PartitionSpec
	dispatch := func(specs []*spi.PartitionSpec, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range specs {
			s.BaseIter, s.Iterations = 64*len(out), 64
			s.State["A0"] = []byte{byte(len(out)), 1}
			for w := 0; w < s.Workers; w++ {
				s.Addrs = append(s.Addrs, fmt.Sprintf("w%d-data-e%d", w, len(out)))
			}
			out = append(out, s)
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := signal.NewRNG(seed * 6151)
		actors := 3 + rng.Intn(5)
		block := []int{1, 2, 5}[seed%3]
		rs := dataflow.RandomSpec{Actors: actors, ExtraEdges: rng.Intn(5),
			MaxRepetition: 3, MaxExecCycles: 100, DynamicPercent: 30}
		if block == 1 {
			rs.FeedbackEdges = 1 // a cycle bounds its edges (BBS); its one iteration of delay covers no block
		}
		g, err := dataflow.Random(rs, seed)
		if err != nil {
			t.Fatal(err)
		}
		q, err := g.RepetitionsVector()
		if err != nil {
			t.Fatal(err)
		}
		last := dataflow.ActorID(actors - 1)
		g.AddEdge("delayed", 0, last, int(q[last]), int(q[0]),
			dataflow.EdgeSpec{Delay: 10 * int(q[last]) * int(q[0]), TokenBytes: 1 + rng.Intn(4)})
		procs := 2 + rng.Intn(min(actors, 4)-1)
		assign := make([]int, actors)
		for i := range assign {
			if assign[i] = i; i >= procs {
				assign[i] = rng.Intn(procs)
			}
		}
		assign[last] = procs - 1 // "delayed" crosses processors
		m, err := demo.Mapping(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		workers := 1 + rng.Intn(procs)
		placement := make([]int, procs)
		for p := range placement {
			if placement[p] = p; p >= workers {
				placement[p] = rng.Intn(workers)
			}
		}
		dispatch(spi.BuildPartitions(g, m, placement, workers, block, false))
	}
	g, m, err := resyncGraph()
	if err != nil {
		t.Fatal(err)
	}
	dispatch(spi.BuildPartitions(g, m, []int{0, 1, 2}, 3, 1, true))
	return out
}

// TestSpecWireByReflection: a spec built by the planner survives the wire
// with every exported field intact, and between them the built specs set
// every exported field of the spec types to a non-zero value — so a field
// added to PartitionSpec or PartEdge and forgotten in the codec (or never
// reached by this corpus) fails here, by name.
func TestSpecWireByReflection(t *testing.T) {
	exercised := map[string]bool{}
	var same func(path string, got, want reflect.Value)
	same = func(path string, got, want reflect.Value) {
		switch {
		case want.Kind() == reflect.Struct:
			for i := 0; i < want.NumField(); i++ {
				name := want.Type().Name() + "." + want.Type().Field(i).Name
				exercised[name] = exercised[name] || !want.Field(i).IsZero()
				same(path+"."+want.Type().Field(i).Name, got.Field(i), want.Field(i))
			}
		case want.Kind() == reflect.Slice && want.Type().Elem().Kind() == reflect.Struct && got.Len() == want.Len():
			for i := 0; i < want.Len(); i++ {
				same(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i))
			}
		case !reflect.DeepEqual(got.Interface(), want.Interface()):
			t.Errorf("%s: decoded %#v, encoded %#v", path, got.Interface(), want.Interface())
		}
	}
	blockedPreload := false
	for i, s := range builtSpecs(t) {
		w := &writer{}
		encodeSpec(w, s)
		r := &reader{b: w.b}
		got := decodeSpec(r)
		if err := r.done(); err != nil {
			t.Fatalf("spec %d (graph %s): %v", i, s.Graph, err)
		}
		same(fmt.Sprintf("spec %d (graph %s block %d)", i, s.Graph, s.Block), reflect.ValueOf(*got), reflect.ValueOf(*s))
		for _, e := range s.Edges {
			blockedPreload = blockedPreload || (e.Block > 1 && len(s.Preload[e.ID]) > 0)
		}
	}
	for _, typ := range []any{spi.PartitionSpec{}, spi.PartProc{}, spi.PartActor{}, spi.PartEdge{}} {
		for i, rt := 0, reflect.TypeOf(typ); i < rt.NumField(); i++ {
			if name := rt.Name() + "." + rt.Field(i).Name; !exercised[name] {
				t.Errorf("no built spec sets %s: the round trip does not cover it", name)
			}
		}
	}
	if !blockedPreload {
		t.Error("no built spec preloads a blocked edge")
	}
}

// TestWireTruncation truncates every encoded message at every byte
// offset; the decoder must return an error (or a shorter valid prefix
// never exists for these ops) and must not panic.
func TestWireTruncation(t *testing.T) {
	for _, msg := range wireMessages() {
		op, payload := Encode(msg)
		if _, ok := msg.(Shutdown); ok {
			continue // zero-length payload, nothing to truncate
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeCtrl(op, payload[:cut]); err == nil {
				t.Fatalf("%T truncated to %d/%d bytes decoded cleanly",
					msg, cut, len(payload))
			}
		}
	}
}

// TestWireTrailingGarbage rejects messages with bytes past the end.
func TestWireTrailingGarbage(t *testing.T) {
	op, payload := Encode(Prepare{Epoch: 1})
	if _, err := DecodeCtrl(op, append(payload, 0xFF)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
	if _, err := DecodeCtrl(99, nil); err == nil {
		t.Fatal("unknown opcode decoded cleanly")
	}
}

// FuzzDecodeCtrl throws adversarial bytes at the control decoder: it must
// never panic, and anything it accepts must re-encode and re-decode to
// the same value (the codec is canonical).
func FuzzDecodeCtrl(f *testing.F) {
	for _, msg := range wireMessages() {
		op, payload := Encode(msg)
		f.Add(op, payload)
	}
	for i, s := range builtSpecs(f) {
		op, payload := Encode(Task{Epoch: uint32(i), Spec: s})
		f.Add(op, payload)
	}
	f.Add(byte(6), []byte{0, 0, 0, 0, 255, 255, 255, 255})
	f.Add(byte(5), make([]byte, 64))
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		msg, err := DecodeCtrl(op, payload)
		if err != nil {
			return
		}
		op2, enc := Encode(msg)
		if op2 != op {
			t.Fatalf("re-encode changed opcode %d → %d", op, op2)
		}
		msg2, err := DecodeCtrl(op2, enc)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("decode/encode/decode diverged:\n first %#v\nsecond %#v", msg, msg2)
		}
	})
}
