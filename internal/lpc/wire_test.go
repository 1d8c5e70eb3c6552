package lpc

import (
	"testing"

	"repro/internal/signal"
)

func compressOne(t *testing.T) (*Codec, *Frame) {
	t.Helper()
	c, err := NewCodec(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.CompressFrame(signal.Speech(256, 11))
	if err != nil {
		t.Fatal(err)
	}
	return c, f
}

func TestFrameMarshalRoundtrip(t *testing.T) {
	c, f := compressOne(t)
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalFrame(data, 1<<uint(c.p.ErrorBits))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != f.N || g.M != f.M || g.StreamSymbols != f.StreamSymbols {
		t.Errorf("header mismatch: %+v vs %+v", g, f)
	}
	// The decoded frame must decompress to the same samples.
	want, err := c.DecompressFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecompressFrame(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("sample %d differs after wire roundtrip", i)
		}
	}
}

func TestUnmarshalFrameErrors(t *testing.T) {
	c, f := compressOne(t)
	data, _ := f.MarshalBinary()
	alphabet := 1 << uint(c.p.ErrorBits)

	if _, err := UnmarshalFrame(data[:5], alphabet); err == nil {
		t.Error("truncated frame should fail")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 0xFF // magic
	if _, err := UnmarshalFrame(bad, alphabet); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := UnmarshalFrame(append(data, 0), alphabet); err == nil {
		t.Error("trailing bytes should fail")
	}
	// Symbol outside alphabet.
	if _, err := UnmarshalFrame(data, 2); err == nil {
		t.Error("tiny alphabet should reject stored symbols")
	}
}

func TestCompressedBitsMatchesWire(t *testing.T) {
	c, f := compressOne(t)
	data, _ := f.MarshalBinary()
	if got := f.CompressedBits(c.p); got != int64(len(data))*8 {
		t.Errorf("CompressedBits = %d, wire = %d bits", got, len(data)*8)
	}
}

func TestCompressionRatioWithSparseTable(t *testing.T) {
	c, _ := NewCodec(DefaultParams())
	x := signal.Speech(256*16, 21)
	rep, err := c.Analyze(x, compress(t, c, x))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ratio < 1.4 {
		t.Errorf("compression ratio %.2f too low with sparse tables", rep.Ratio)
	}
}
