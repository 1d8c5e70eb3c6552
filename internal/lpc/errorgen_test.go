package lpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// The sample codecs against the wire form spelled out sample by sample:
// binary.LittleEndian on the float64's bits. On a little-endian host the
// codecs copy memory, so every bit pattern must come through as it went in,
// NaN payloads included; putFloats and getFloats, the branch a big-endian
// host runs, are called directly.

// floatBitPatterns returns the bit patterns the codecs must carry exactly:
// zeros, infinities, NaNs with payloads and either sign, subnormals and the
// extremes of the normals, then n random ones.
func floatBitPatterns(n int) []uint64 {
	bits := []uint64{
		0, 1 << 63, // ±0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000000, 0x7ff8000000000001, 0x7ff0000000000001, // quiet and signalling NaNs
		0xfff8dead0000beef, 0x7fffffffffffffff, 0xffffffffffffffff,
		1, 0x000fffffffffffff, 0x8000000000000001, 0x800fffffffffffff, // subnormals
		0x0010000000000000, 0x7fefffffffffffff, 0xffefffffffffffff,
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range n {
		bits = append(bits, rng.Uint64())
	}
	return bits
}

// wireOf is the reference encoder.
func wireOf(bits []uint64) []byte {
	var b []byte
	for _, v := range bits {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func sameBits(t *testing.T, what string, got []float64, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i, v := range got {
		if math.Float64bits(v) != want[i] {
			t.Fatalf("%s: sample %d is %#016x, want %#016x", what, i, math.Float64bits(v), want[i])
		}
	}
}

func TestFloatCodecBitExact(t *testing.T) {
	bits := floatBitPatterns(1000)
	x := make([]float64, len(bits))
	for i, v := range bits {
		x[i] = math.Float64frombits(v)
	}
	wire := wireOf(bits)

	prefix := []byte{0xAA, 0xBB, 0xCC}
	enc := appendFloats(append([]byte(nil), prefix...), x)
	if !bytes.Equal(enc[:len(prefix)], prefix) || !bytes.Equal(enc[len(prefix):], wire) {
		t.Fatal("appendFloats: bytes differ from the per-sample little-endian encoding")
	}
	be := make([]byte, len(wire))
	putFloats(be, x)
	if !bytes.Equal(be, wire) {
		t.Fatal("putFloats: bytes differ from the per-sample little-endian encoding")
	}

	// A section's samples follow its 6-byte header and 4-byte history count,
	// and a slab's tokens sit wherever the size table puts them: decode from
	// every offset a float64 can be misaligned by, and after a prefix.
	for off := range 9 {
		src := append(make([]byte, off), wire...)[off:]
		dst, err := appendDecoded([]float64{-1.5}, src)
		if err != nil {
			t.Fatal(err)
		}
		if dst[0] != -1.5 {
			t.Fatalf("offset %d: appendDecoded overwrote the prefix: %v", off, dst[0])
		}
		sameBits(t, fmt.Sprintf("appendDecoded at offset %d", off), dst[1:], bits)
		out := make([]float64, len(bits))
		getFloats(out, src)
		sameBits(t, fmt.Sprintf("getFloats at offset %d", off), out, bits)
	}

	for _, n := range []int{1, 7, 9, 8*len(bits) - 1} {
		dst, err := appendDecoded([]float64{3}, wire[:n])
		if want := fmt.Sprintf("lpc: float payload of %d bytes", n); err == nil || err.Error() != want {
			t.Errorf("%d bytes: err = %v, want %q", n, err, want)
		}
		if len(dst) != 1 || dst[0] != 3 {
			t.Errorf("%d bytes: a refused payload changed dst to %v", n, dst)
		}
	}
	if dst, err := appendDecoded(nil, nil); err != nil || len(dst) != 0 {
		t.Errorf("empty payload: %v, %v", dst, err)
	}
	if enc := appendFloats(nil, nil); len(enc) != 0 {
		t.Errorf("no samples encoded to %d bytes", len(enc))
	}
}

// FuzzFloatCodec: a payload decodes iff its length is a whole number of
// samples, every sample carries the bits of its 8 bytes, and encoding the
// samples again gives the payload back.
func FuzzFloatCodec(f *testing.F) {
	f.Add(wireOf(floatBitPatterns(3)), uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(1))
	f.Add([]byte{}, uint8(5))
	f.Fuzz(func(t *testing.T, b []byte, skip uint8) {
		src := b[min(int(skip%9), len(b)):]
		dst, err := appendDecoded([]float64{7}, src)
		if len(src)%8 != 0 {
			if err == nil || len(dst) != 1 {
				t.Fatalf("%d bytes accepted: %d samples, err %v", len(src), len(dst)-1, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, len(src)/8)
		for i := range want {
			want[i] = binary.LittleEndian.Uint64(src[8*i:])
		}
		sameBits(t, "appendDecoded", dst[1:], want)
		if enc := appendFloats([]byte{9}, dst[1:]); enc[0] != 9 || !bytes.Equal(enc[1:], src) {
			t.Fatalf("re-encode mismatch: %x vs %x", enc[1:], src)
		}
	})
}
