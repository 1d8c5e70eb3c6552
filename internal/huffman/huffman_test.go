package huffman

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitWriterReaderRoundtrip(t *testing.T) {
	var w BitWriter
	w.WriteBits(0b101, 3)
	w.WriteBits(0b0, 1)
	w.WriteBits(0xABCD, 16)
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Errorf("got %b", v)
	}
	if v, _ := r.ReadBits(1); v != 0 {
		t.Errorf("got %b", v)
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Errorf("got %x", v)
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(9); err != ErrUnexpectedEOF {
		t.Errorf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadBitsWidthValidation(t *testing.T) {
	r := NewBitReader(make([]byte, 8))
	if _, err := r.ReadBits(33); err == nil {
		t.Error("width 33 should fail")
	}
}

func TestWriteBitsWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var w BitWriter
	w.WriteBits(0, 33)
}

func TestBitsRemaining(t *testing.T) {
	r := NewBitReader([]byte{0, 0})
	if r.BitsRemaining() != 16 {
		t.Errorf("remaining = %d", r.BitsRemaining())
	}
	r.ReadBits(5)
	if r.BitsRemaining() != 11 {
		t.Errorf("remaining = %d", r.BitsRemaining())
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]int64{0, 0}); err == nil {
		t.Error("all-zero frequencies should fail")
	}
	if _, err := Build([]int64{-1, 5}); err == nil {
		t.Error("negative frequency should fail")
	}
}

func TestSingleSymbolAlphabet(t *testing.T) {
	cb, err := Build([]int64{0, 7, 0})
	if err != nil {
		t.Fatal(err)
	}
	if cb.Lengths[1] != 1 {
		t.Errorf("single symbol length = %d, want 1", cb.Lengths[1])
	}
	var w BitWriter
	if err := cb.Encode(&w, []uint16{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	got, err := cb.Decode(NewBitReader(w.Bytes()), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got {
		if s != 1 {
			t.Fatalf("decoded %v", got)
		}
	}
}

func TestSkewedFrequenciesGiveShortCodesToCommonSymbols(t *testing.T) {
	cb, err := Build([]int64{1000, 10, 10, 1})
	if err != nil {
		t.Fatal(err)
	}
	if cb.Lengths[0] >= cb.Lengths[3] {
		t.Errorf("common symbol length %d !< rare symbol length %d", cb.Lengths[0], cb.Lengths[3])
	}
}

func TestEncodeUnknownSymbolFails(t *testing.T) {
	cb, _ := Build([]int64{5, 5})
	var w BitWriter
	if err := cb.Encode(&w, []uint16{7}); err == nil {
		t.Error("out-of-alphabet symbol should fail")
	}
	if err := cb.Encode(&w, []uint16{1, 0}); err != nil {
		t.Errorf("valid symbols failed: %v", err)
	}
}

func TestFromLengthsMatchesBuild(t *testing.T) {
	freqs := []int64{50, 30, 10, 5, 5}
	cb, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	cb2, err := FromLengths(cb.Lengths)
	if err != nil {
		t.Fatal(err)
	}
	// Decoder built from lengths must decode the encoder's stream.
	syms := []uint16{0, 1, 2, 3, 4, 0, 0, 1}
	var w BitWriter
	if err := cb.Encode(&w, syms); err != nil {
		t.Fatal(err)
	}
	got, err := cb2.Decode(NewBitReader(w.Bytes()), len(syms))
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("decoded %v, want %v", got, syms)
		}
	}
}

func TestFromLengthsValidation(t *testing.T) {
	if _, err := FromLengths([]uint8{0, 0}); err == nil {
		t.Error("all zero lengths should fail")
	}
	if _, err := FromLengths([]uint8{40}); err == nil {
		t.Error("overlong length should fail")
	}
}

func TestDecodeInvalidStream(t *testing.T) {
	cb, _ := Build([]int64{1, 1, 1, 1}) // all 2-bit codes
	// A canonical code over 4 equal symbols uses all 2-bit patterns, so any
	// stream decodes; instead test truncation.
	var w BitWriter
	cb.Encode(&w, []uint16{0})
	if _, err := cb.Decode(NewBitReader(w.Bytes()), 10); err == nil {
		t.Error("asking for more symbols than encoded should fail")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]uint16{1, 1, 3, 200}, 4)
	if h[1] != 2 || h[3] != 1 || h[0] != 0 {
		t.Errorf("histogram = %v", h)
	}
}

// Property: encode/decode roundtrip over random symbol streams, and the
// code respects Kraft's inequality with equality (complete code).
func TestHuffmanRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alphabet := 2 + r.Intn(30)
		n := 1 + r.Intn(400)
		syms := make([]uint16, n)
		for i := range syms {
			syms[i] = uint16(r.Intn(alphabet))
		}
		freqs := Histogram(syms, alphabet)
		cb, err := Build(freqs)
		if err != nil {
			return false
		}
		// Kraft sum over present symbols must be <= 1 (prefix-free).
		var kraft float64
		for _, l := range cb.Lengths {
			if l > 0 {
				kraft += math.Pow(2, -float64(l))
			}
		}
		if kraft > 1+1e-9 {
			return false
		}
		var w BitWriter
		if err := cb.Encode(&w, syms); err != nil {
			return false
		}
		got, err := cb.Decode(NewBitReader(w.Bytes()), n)
		if err != nil {
			return false
		}
		for i := range syms {
			if got[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: compression beats or matches fixed-width coding for skewed
// distributions.
func TestHuffmanBeatsFixedWidthOnSkewedData(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	syms := make([]uint16, 4000)
	for i := range syms {
		// geometric-ish: mostly symbol 0
		v := 0
		for v < 15 && r.Float64() < 0.35 {
			v++
		}
		syms[i] = uint16(v)
	}
	freqs := Histogram(syms, 16)
	cb, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	var w BitWriter
	if err := cb.Encode(&w, syms); err != nil {
		t.Fatal(err)
	}
	bits := int64(len(w.Bytes())) * 8
	fixed := int64(len(syms)) * 4
	if bits >= fixed {
		t.Errorf("huffman %d bits !< fixed %d bits", bits, fixed)
	}
}

func TestBytesStable(t *testing.T) {
	var w BitWriter
	w.WriteBits(0xFF, 8)
	if !bytes.Equal(w.Bytes(), []byte{0xFF}) {
		t.Errorf("Bytes = %v", w.Bytes())
	}
}
