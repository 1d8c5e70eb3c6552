package orch

import (
	"reflect"
	"testing"

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
			Graph: "part", Node: 1, Workers: 3,
			Addrs: []string{"a0", "a1", "a2"}, BaseIter: 20, Iterations: 5,
			Procs: []spi.PartProc{{Proc: 2, Actors: []spi.PartActor{
				{Name: "B", In: []uint16{0}, Out: []uint16{1, 2}},
				{Name: "S", In: []uint16{2}},
			}}},
			Edges: []spi.PartEdge{
				{ID: 0, Name: "ab", Mode: 0, Bytes: 8, Protocol: 0, Capacity: 4,
					Delay: 2, In: true, Peer: 0},
				{ID: 1, Name: "bc", Mode: 1, Bytes: 16, Protocol: 1, Out: true, Peer: 2,
					SuppressAck: true},
				{ID: 2, Name: "bs", SameProc: true, Bytes: 3, Peer: -1},
			},
			Preload: map[uint16][][]byte{
				1: {[]byte{1, 2}, {}},
				2: {nil},
			},
			State:  map[string][]byte{"B": {9, 9}, "S": {}},
			Resync: true,
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
