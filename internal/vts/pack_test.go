package vts

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackUnpackHeaderRoundtrip(t *testing.T) {
	p := NewPacker(64, HeaderFraming)
	u := NewUnpacker(64, HeaderFraming)
	for _, payload := range [][]byte{nil, {1}, {0x7E, 0x7D, 0xFF}, bytes.Repeat([]byte{9}, 64)} {
		msg, err := p.Pack(payload)
		if err != nil {
			t.Fatalf("Pack(%v): %v", payload, err)
		}
		got, err := u.Unpack(msg)
		if err != nil {
			t.Fatalf("Unpack: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("roundtrip: got %v, want %v", got, payload)
		}
	}
}

func TestPackUnpackDelimiterRoundtrip(t *testing.T) {
	p := NewPacker(64, DelimiterFraming)
	u := NewUnpacker(64, DelimiterFraming)
	for _, payload := range [][]byte{nil, {1}, {0x7E}, {0x7D}, {0x7E, 0x7D, 0x7E}, bytes.Repeat([]byte{0x7E}, 64)} {
		msg, err := p.Pack(payload)
		if err != nil {
			t.Fatalf("Pack(%v): %v", payload, err)
		}
		got, err := u.Unpack(msg)
		if err != nil {
			t.Fatalf("Unpack(%v): %v", msg, err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("roundtrip: got %v, want %v", got, payload)
		}
	}
}

func TestPackRejectsOversize(t *testing.T) {
	p := NewPacker(4, HeaderFraming)
	if _, err := p.Pack(make([]byte, 5)); err == nil {
		t.Fatal("expected oversize error")
	}
}

func TestUnpackHeaderErrors(t *testing.T) {
	u := NewUnpacker(4, HeaderFraming)
	if _, err := u.Unpack([]byte{1, 2}); err == nil {
		t.Error("short header should fail")
	}
	// header claims 100 bytes but bound is 4
	if _, err := u.Unpack([]byte{100, 0, 0, 0, 1}); err == nil {
		t.Error("oversize header should fail")
	}
	// header claims 3 bytes, only 1 present
	if _, err := u.Unpack([]byte{3, 0, 0, 0, 1}); err == nil {
		t.Error("truncated token should fail")
	}
}

func TestUnpackDelimiterErrors(t *testing.T) {
	u := NewUnpacker(4, DelimiterFraming)
	if _, err := u.Unpack([]byte{1, 2, 3}); err == nil {
		t.Error("missing delimiter should fail")
	}
	if _, err := u.Unpack([]byte{1, 0x7E, 2, 0x7E}); err == nil {
		t.Error("early delimiter should fail")
	}
	if _, err := u.Unpack([]byte{1, 2, 3, 4, 5, 0x7E}); err == nil {
		t.Error("payload beyond bound should fail")
	}
}

func TestReceiverOpsHeaderIsConstant(t *testing.T) {
	p := NewPacker(1024, HeaderFraming)
	u := NewUnpacker(1024, HeaderFraming)
	msg, _ := p.Pack(make([]byte, 1000))
	before := u.ReceiverOps
	if _, err := u.Unpack(msg); err != nil {
		t.Fatal(err)
	}
	if u.ReceiverOps-before != 1 {
		t.Errorf("header framing receiver ops = %d, want 1", u.ReceiverOps-before)
	}
}

func TestReceiverOpsDelimiterScalesWithPayload(t *testing.T) {
	// The paper's argument for header framing on FPGAs: the delimiter
	// receiver examines every byte.
	p := NewPacker(1024, DelimiterFraming)
	u := NewUnpacker(1024, DelimiterFraming)
	msg, _ := p.Pack(make([]byte, 1000))
	before := u.ReceiverOps
	if _, err := u.Unpack(msg); err != nil {
		t.Fatal(err)
	}
	if got := u.ReceiverOps - before; got < 1000 {
		t.Errorf("delimiter framing receiver ops = %d, want >= payload size 1000", got)
	}
}

func TestFramingString(t *testing.T) {
	if HeaderFraming.String() != "header" || DelimiterFraming.String() != "delimiter" {
		t.Errorf("framing strings: %s %s", HeaderFraming, DelimiterFraming)
	}
}

// Property: roundtrip over random payloads for both framings.
func TestPackRoundtripProperty(t *testing.T) {
	for _, framing := range []Framing{HeaderFraming, DelimiterFraming} {
		framing := framing
		p := NewPacker(256, framing)
		u := NewUnpacker(256, framing)
		f := func(seed int64, n uint8) bool {
			r := rand.New(rand.NewSource(seed))
			payload := make([]byte, int(n))
			r.Read(payload)
			msg, err := p.Pack(payload)
			if err != nil {
				return false
			}
			got, err := u.Unpack(msg)
			if err != nil {
				return false
			}
			return bytes.Equal(got, payload)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("framing %v: %v", framing, err)
		}
	}
}
