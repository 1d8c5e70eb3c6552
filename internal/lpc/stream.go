package lpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Stream container format: a self-describing header carrying the codec
// parameters followed by length-prefixed frames, so a decoder needs nothing
// but the stream. Layout (little-endian):
//
//	u32 magic "SPIC"  u8 version
//	u16 frameSize  u16 order  u8 errorBits  u8 coeffBits
//	u32 frameCount
//	frameCount x { u32 length, frame bytes (Frame.MarshalBinary) }

const (
	streamMagic   = 0x43495053 // "SPIC"
	streamVersion = 1
)

// EncodeStream writes the container of the codec's frames to w, returning
// the number of container bytes written.
func (c *Codec) EncodeStream(w io.Writer, frames []*Frame) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	put := func(v interface{}) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		written += int64(binary.Size(v))
		return nil
	}
	if err := put(uint32(streamMagic)); err != nil {
		return written, err
	}
	if err := put(uint8(streamVersion)); err != nil {
		return written, err
	}
	if err := put(uint16(c.p.FrameSize)); err != nil {
		return written, err
	}
	if err := put(uint16(c.p.Order)); err != nil {
		return written, err
	}
	if err := put(uint8(c.p.ErrorBits)); err != nil {
		return written, err
	}
	if err := put(uint8(c.p.CoeffBits)); err != nil {
		return written, err
	}
	if err := put(uint32(len(frames))); err != nil {
		return written, err
	}
	for i, f := range frames {
		data, err := f.MarshalBinary()
		if err != nil {
			return written, fmt.Errorf("lpc: frame %d: %w", i, err)
		}
		if err := put(uint32(len(data))); err != nil {
			return written, err
		}
		n, err := bw.Write(data)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// DecodeStream reads a container and returns the reconstructed signal and
// the codec parameters it carried.
func DecodeStream(r io.Reader) ([]float64, Params, error) {
	br := bufio.NewReader(r)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, Params{}, err
	}
	if magic != streamMagic {
		return nil, Params{}, fmt.Errorf("lpc: bad stream magic %#x", magic)
	}
	var version uint8
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, Params{}, err
	}
	if version != streamVersion {
		return nil, Params{}, fmt.Errorf("lpc: unsupported stream version %d", version)
	}
	var fs, order uint16
	var eb, cb uint8
	if err := binary.Read(br, binary.LittleEndian, &fs); err != nil {
		return nil, Params{}, err
	}
	if err := binary.Read(br, binary.LittleEndian, &order); err != nil {
		return nil, Params{}, err
	}
	if err := binary.Read(br, binary.LittleEndian, &eb); err != nil {
		return nil, Params{}, err
	}
	if err := binary.Read(br, binary.LittleEndian, &cb); err != nil {
		return nil, Params{}, err
	}
	p := Params{FrameSize: int(fs), Order: int(order), ErrorBits: int(eb), CoeffBits: int(cb)}
	codec, err := NewCodec(p)
	if err != nil {
		return nil, Params{}, fmt.Errorf("lpc: stream carries invalid params: %w", err)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, Params{}, err
	}
	const maxFrames = 1 << 24 // sanity bound against corrupt headers
	if count > maxFrames {
		return nil, Params{}, fmt.Errorf("lpc: implausible frame count %d", count)
	}
	frames := make([]*Frame, 0, count)
	alphabet := 1 << uint(p.ErrorBits)
	for i := uint32(0); i < count; i++ {
		var ln uint32
		if err := binary.Read(br, binary.LittleEndian, &ln); err != nil {
			return nil, Params{}, fmt.Errorf("lpc: frame %d header: %w", i, err)
		}
		if ln > 1<<24 {
			return nil, Params{}, fmt.Errorf("lpc: implausible frame length %d", ln)
		}
		buf := make([]byte, ln)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, Params{}, fmt.Errorf("lpc: frame %d body: %w", i, err)
		}
		f, err := UnmarshalFrame(buf, alphabet)
		if err != nil {
			return nil, Params{}, fmt.Errorf("lpc: frame %d: %w", i, err)
		}
		frames = append(frames, f)
	}
	out, err := codec.Decompress(frames)
	if err != nil {
		return nil, Params{}, err
	}
	return out, p, nil
}
