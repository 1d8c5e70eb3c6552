package vts

import (
	"encoding/binary"
	"fmt"
)

// Framing selects how a variable-size packed token tells the receiver its
// length. The paper discusses both options: a size field in the message
// header (cheap on FPGAs) and a delimiter scanned by the receiver
// (expensive, as it costs per-byte work on the receive side).
type Framing uint8

const (
	// HeaderFraming prefixes the payload with a 4-byte little-endian size.
	HeaderFraming Framing = iota
	// DelimiterFraming terminates the payload with a sentinel byte and
	// escapes payload occurrences of the sentinel.
	DelimiterFraming
)

func (f Framing) String() string {
	switch f {
	case HeaderFraming:
		return "header"
	case DelimiterFraming:
		return "delimiter"
	default:
		return fmt.Sprintf("Framing(%d)", uint8(f))
	}
}

// SizeHeaderBytes is the length of the size field used by HeaderFraming.
const SizeHeaderBytes = 4

const (
	delimByte  = 0x7E
	escapeByte = 0x7D
	escapeXOR  = 0x20
)

// Packer frames variable-size payloads into packed tokens for one edge,
// enforcing the VTS bound b_max. A Packer never allocates beyond the bound,
// honouring the paper's bounded-memory requirement for actor
// implementations. The zero value is not usable; use NewPacker.
type Packer struct {
	bmax    int64
	framing Framing
	buf     []byte // reused scratch, capacity fixed at construction
}

// NewPacker returns a Packer for packed tokens of at most bmax payload
// bytes using the given framing.
func NewPacker(bmax int64, framing Framing) *Packer {
	cap := int(bmax) + SizeHeaderBytes
	if framing == DelimiterFraming {
		// worst case: every byte escaped, plus trailing delimiter
		cap = 2*int(bmax) + 1
	}
	return &Packer{bmax: bmax, framing: framing, buf: make([]byte, 0, cap)}
}

// Pack frames payload into a packed token. The returned slice aliases the
// Packer's internal buffer and is valid until the next Pack call. Returns
// an error if the payload exceeds b_max — by construction a VTS edge never
// carries more.
func (p *Packer) Pack(payload []byte) ([]byte, error) {
	if int64(len(payload)) > p.bmax {
		return nil, fmt.Errorf("vts: payload %d bytes exceeds b_max %d", len(payload), p.bmax)
	}
	p.buf = p.buf[:0]
	switch p.framing {
	case HeaderFraming:
		var hdr [SizeHeaderBytes]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		p.buf = append(p.buf, hdr[:]...)
		p.buf = append(p.buf, payload...)
	case DelimiterFraming:
		for _, b := range payload {
			if b == delimByte || b == escapeByte {
				p.buf = append(p.buf, escapeByte, b^escapeXOR)
			} else {
				p.buf = append(p.buf, b)
			}
		}
		p.buf = append(p.buf, delimByte)
	default:
		return nil, fmt.Errorf("vts: unknown framing %v", p.framing)
	}
	return p.buf, nil
}

// Unpacker recovers payloads from packed tokens. ReceiverOps counts the
// per-byte operations the receive side performed — the quantity the paper
// uses to argue that delimiter framing is expensive on FPGAs.
type Unpacker struct {
	bmax    int64
	framing Framing
	buf     []byte
	// ReceiverOps accumulates receive-side byte-examination operations.
	ReceiverOps int64
}

// NewUnpacker returns an Unpacker matching NewPacker(bmax, framing).
func NewUnpacker(bmax int64, framing Framing) *Unpacker {
	return &Unpacker{bmax: bmax, framing: framing, buf: make([]byte, 0, int(bmax))}
}

// Unpack extracts the payload from a packed token. The returned slice
// aliases the Unpacker's internal buffer (valid until the next Unpack) for
// delimiter framing, or the input for header framing.
func (u *Unpacker) Unpack(msg []byte) ([]byte, error) {
	switch u.framing {
	case HeaderFraming:
		if len(msg) < SizeHeaderBytes {
			return nil, fmt.Errorf("vts: packed token too short for header: %d bytes", len(msg))
		}
		size := int64(binary.LittleEndian.Uint32(msg))
		if size > u.bmax {
			return nil, fmt.Errorf("vts: header size %d exceeds b_max %d", size, u.bmax)
		}
		if int64(len(msg)-SizeHeaderBytes) < size {
			return nil, fmt.Errorf("vts: packed token truncated: header says %d, have %d", size, len(msg)-SizeHeaderBytes)
		}
		// Header framing costs O(1) on the receiver: one header read.
		u.ReceiverOps++
		return msg[SizeHeaderBytes : SizeHeaderBytes+size], nil
	case DelimiterFraming:
		u.buf = u.buf[:0]
		esc := false
		for i, b := range msg {
			u.ReceiverOps++ // every byte must be examined to find the delimiter
			switch {
			case esc:
				u.buf = append(u.buf, b^escapeXOR)
				esc = false
			case b == escapeByte:
				esc = true
			case b == delimByte:
				if i != len(msg)-1 {
					return nil, fmt.Errorf("vts: delimiter before end of token at byte %d", i)
				}
				if int64(len(u.buf)) > u.bmax {
					return nil, fmt.Errorf("vts: payload %d exceeds b_max %d", len(u.buf), u.bmax)
				}
				return u.buf, nil
			default:
				u.buf = append(u.buf, b)
			}
		}
		return nil, fmt.Errorf("vts: packed token missing delimiter")
	default:
		return nil, fmt.Errorf("vts: unknown framing %v", u.framing)
	}
}
