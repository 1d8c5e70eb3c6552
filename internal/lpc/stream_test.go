package lpc

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/signal"
)

func TestStreamRoundtrip(t *testing.T) {
	p := DefaultParams()
	codec, _ := NewCodec(p)
	x := signal.Speech(p.FrameSize*6, 31)
	var buf bytes.Buffer
	n, err := codec.EncodeStream(&buf, compress(t, codec, x))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, gotParams, err := DecodeStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotParams != p {
		t.Errorf("params roundtrip: %+v vs %+v", gotParams, p)
	}
	if len(got) != p.FrameSize*6 {
		t.Fatalf("decoded %d samples", len(got))
	}
	var sig, noise float64
	for i := range got {
		sig += x[i] * x[i]
		d := x[i] - got[i]
		noise += d * d
	}
	if snr := 10 * math.Log10(sig/noise); snr < 20 {
		t.Errorf("stream SNR %v dB", snr)
	}
}

func TestStreamCompressionBeatsRaw(t *testing.T) {
	p := DefaultParams()
	codec, _ := NewCodec(p)
	x := signal.Speech(p.FrameSize*10, 8)
	var buf bytes.Buffer
	if _, err := codec.EncodeStream(&buf, compress(t, codec, x)); err != nil {
		t.Fatal(err)
	}
	raw := len(x) * 2 // 16-bit PCM
	if buf.Len() >= raw {
		t.Errorf("stream %d bytes !< raw %d", buf.Len(), raw)
	}
}

func TestDecodeStreamErrors(t *testing.T) {
	p := DefaultParams()
	codec, _ := NewCodec(p)
	x := signal.Speech(p.FrameSize*2, 4)
	var buf bytes.Buffer
	if _, err := codec.EncodeStream(&buf, compress(t, codec, x)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte{9, 9, 9, 9}, good[4:]...),
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"truncated":   good[:len(good)-5],
		"short hdr":   good[:6],
	}
	for name, data := range cases {
		if _, _, err := DecodeStream(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
}

func TestDecodeStreamCorruptFrameLength(t *testing.T) {
	p := DefaultParams()
	codec, _ := NewCodec(p)
	x := signal.Speech(p.FrameSize, 4)
	var buf bytes.Buffer
	codec.EncodeStream(&buf, compress(t, codec, x))
	data := buf.Bytes()
	// Frame length field sits after the 13-byte header + 4-byte count.
	data[13] = 0xFF
	data[14] = 0xFF
	data[15] = 0xFF
	if _, _, err := DecodeStream(bytes.NewReader(data)); err == nil {
		t.Error("corrupt frame length should fail")
	}
}

func TestDecodeStreamImplausibleCount(t *testing.T) {
	// Handcraft a header with a huge frame count.
	var buf bytes.Buffer
	buf.Write([]byte{0x53, 0x50, 0x49, 0x43}) // "SPIC" little-endian value
	buf.WriteByte(1)                          // version
	buf.Write([]byte{0, 1})                   // frame size 256
	buf.Write([]byte{10, 0})                  // order
	buf.WriteByte(7)                          // error bits
	buf.WriteByte(12)                         // coeff bits
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // count
	_, _, err := DecodeStream(&buf)
	if err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("err = %v, want implausible count", err)
	}
}
