package lpc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/signal"
)

// Robustness: the frame and stream decoders face arbitrary bytes (storage
// corruption, truncation); they must return errors, never panic or
// over-allocate.

func TestUnmarshalFrameNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, int(n))
		r.Read(data)
		_, _ = UnmarshalFrame(data, 128)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalFrameMutations(t *testing.T) {
	c, _ := NewCodec(DefaultParams())
	frame, err := c.CompressFrame(signal.Speech(256, 9))
	if err != nil {
		t.Fatal(err)
	}
	data, err := frame.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	alphabet := 1 << uint(c.p.ErrorBits)
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte(nil), data...)
		// Flip 1-3 random bytes.
		for k := 0; k < 1+r.Intn(3); k++ {
			mut[r.Intn(len(mut))] ^= byte(1 + r.Intn(255))
		}
		f, err := UnmarshalFrame(mut, alphabet)
		if err != nil {
			continue // rejection is the expected common case
		}
		// If it decoded structurally, decompression must also either work
		// or error cleanly.
		if _, err := c.DecompressFrame(f); err != nil {
			continue
		}
	}
}

func TestDecodeStreamRandomBytes(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, int(n))
		r.Read(data)
		_, _, _ = DecodeStream(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
