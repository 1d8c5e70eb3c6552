package spi

import (
	"bytes"
	"testing"
)

// Fuzzing the wire decoders: arbitrary bytes must never panic, and any
// message a decoder accepts must re-encode to exactly the input — the
// decoders and AppendMessage are inverses on the valid set. These are the
// bytes a networked SPI node reads straight off a TCP connection, so the
// no-panic property is a security boundary, not just hygiene.

func FuzzDecodeStatic(f *testing.F) {
	f.Add(AppendMessage(nil, Static, 7, []byte{1, 2, 3, 4}), 4)
	f.Add(AppendMessage(nil, Static, 0, nil), 0)
	f.Add([]byte{0xff}, 3)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, msg []byte, expect int) {
		id, payload, err := DecodeStatic(msg, expect)
		if err != nil {
			return
		}
		if len(payload) != expect {
			t.Fatalf("accepted payload of %d bytes, expected size %d", len(payload), expect)
		}
		if got := AppendMessage(nil, Static, id, payload); !bytes.Equal(got, msg) {
			t.Fatalf("re-encode mismatch: %x vs %x", got, msg)
		}
	})
}

func FuzzDecodeDynamic(f *testing.F) {
	f.Add(AppendMessage(nil, Dynamic, 9, []byte("abc")), 16)
	f.Add(AppendMessage(nil, Dynamic, 1, nil), 0)
	f.Add([]byte{1, 0, 255, 255, 255, 255}, 1024)
	f.Add([]byte{}, 8)
	f.Fuzz(func(t *testing.T, msg []byte, maxBytes int) {
		id, payload, err := DecodeDynamic(msg, maxBytes)
		if err != nil {
			return
		}
		if len(payload) > maxBytes {
			t.Fatalf("accepted %d payload bytes over bound %d", len(payload), maxBytes)
		}
		if got := AppendMessage(nil, Dynamic, id, payload); !bytes.Equal(got, msg) {
			t.Fatalf("re-encode mismatch: %x vs %x", got, msg)
		}
	})
}
