package spi

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Robustness: decoders must reject, never panic on, corrupted wire data —
// a hardware receive path faces bit errors, and the software runtime
// shares the same decode functions.

func TestDecodeStaticNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(seed int64, n uint8, expect uint8) bool {
		r := rand.New(rand.NewSource(seed))
		msg := make([]byte, int(n))
		r.Read(msg)
		// Any result is fine; panics fail the test via quick's recovery
		// being absent — the call simply must return.
		_, _, _ = DecodeStatic(msg, int(expect))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeDynamicNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(seed int64, n uint8, bound uint16) bool {
		r := rand.New(rand.NewSource(seed))
		msg := make([]byte, int(n))
		r.Read(msg)
		_, _, _ = DecodeDynamic(msg, int(bound))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeMutatedValidMessage(t *testing.T) {
	// Start from a valid dynamic message and flip every single byte in
	// turn: decode must either succeed (mutation hit the payload) or
	// return an error — never panic, never return an oversized payload.
	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(i)
	}
	msg := AppendMessage(nil, Dynamic, 5, payload)
	for pos := 0; pos < len(msg); pos++ {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), msg...)
			mut[pos] ^= flip
			_, p, err := DecodeDynamic(mut, 32)
			if err == nil && len(p) > 32 {
				t.Fatalf("pos %d flip %x: decoded %d bytes beyond bound", pos, flip, len(p))
			}
		}
	}
}

func TestRuntimeSurvivesHostileSizes(t *testing.T) {
	rt := NewRuntime()
	tx, rx, err := rt.Init(EdgeConfig{ID: 1, Mode: Dynamic, MaxBytes: 16, Protocol: UBS})
	if err != nil {
		t.Fatal(err)
	}
	// Oversize send rejected; nothing queued.
	if err := tx.Send(make([]byte, 17)); err == nil {
		t.Fatal("oversize not rejected")
	}
	if st, _ := rt.Stats(1); st.Messages != 0 {
		t.Fatal("rejected send left a message behind")
	}
	// Normal operation still works afterwards.
	if err := tx.Send(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if p, err := rx.Receive(); err != nil || len(p) != 16 {
		t.Fatalf("recv after rejection: %v %d", err, len(p))
	}
}
