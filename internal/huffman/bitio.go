// Package huffman implements canonical Huffman coding over 16-bit symbol
// alphabets, with the bit-level I/O needed to serialize code streams. It is
// the entropy-coding stage (actor E) of the paper's application 1: the
// quantized LPC prediction error is Huffman coded to form the compressed
// bitstream.
package huffman

import (
	"errors"
	"fmt"
)

// ErrUnexpectedEOF reports a bit read past the end of the stream.
var ErrUnexpectedEOF = errors.New("huffman: unexpected end of bit stream")

// BitWriter packs bits MSB-first into a byte slice.
type BitWriter struct {
	buf  []byte
	nbit uint8 // bits used in the last byte (0..7; 0 means last byte full/none)
}

// WriteBits appends the low `width` bits of v, most significant first.
// width must be in [0, 32].
func (w *BitWriter) WriteBits(v uint32, width uint) {
	if width > 32 {
		panic(fmt.Sprintf("huffman: WriteBits width %d", width))
	}
	for i := int(width) - 1; i >= 0; i-- {
		bit := byte((v >> uint(i)) & 1)
		if w.nbit == 0 {
			w.buf = append(w.buf, 0)
		}
		w.buf[len(w.buf)-1] |= bit << (7 - w.nbit)
		w.nbit = (w.nbit + 1) & 7
	}
}

// Bytes returns the packed stream. Trailing unused bits are zero.
func (w *BitWriter) Bytes() []byte { return w.buf }

// BitReader consumes bits MSB-first from a byte slice.
type BitReader struct {
	buf []byte
	pos int // bit position
}

// NewBitReader returns a reader over the stream.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (byte, error) {
	if r.pos >= len(r.buf)*8 {
		return 0, ErrUnexpectedEOF
	}
	b := (r.buf[r.pos/8] >> (7 - uint(r.pos&7))) & 1
	r.pos++
	return b, nil
}

// ReadBits returns the next `width` bits as an unsigned value (MSB first).
func (r *BitReader) ReadBits(width uint) (uint32, error) {
	if width > 32 {
		return 0, fmt.Errorf("huffman: ReadBits width %d", width)
	}
	var v uint32
	for i := uint(0); i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint32(b)
	}
	return v, nil
}

// BitsRemaining returns how many unread bits remain.
func (r *BitReader) BitsRemaining() int { return len(r.buf)*8 - r.pos }
