package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// sealData is what a link does to a message buffer it is handed: the tag
// written behind the frame header's room, then the frame sealed in place
// with its sequence number (sendData, fileLocked).
func sealData(tag uint32, seq uint64, msg []byte) *[]byte {
	f := Buffer(len(msg))
	*f = append(*f, msg...)
	binary.LittleEndian.PutUint32((*f)[frameHeaderBytes:], tag)
	sealFrame(*f, frameData, seq)
	return f
}

// checkSealed holds a DATA frame sealed in place to appendFrame's encoding
// of the same tag, sequence number and message, byte for byte, and to what
// openFrame reads back.
func checkSealed(t *testing.T, tag uint32, seq uint64, msg []byte) {
	t.Helper()
	f := sealData(tag, seq, msg)
	defer Recycle(f)
	var head [tagBytes]byte
	binary.LittleEndian.PutUint32(head[:], tag)
	if want := appendFrame(nil, frameData, seq, head[:], msg); !bytes.Equal(*f, want) {
		t.Fatalf("tag %d seq %d, %d-byte message: sealed in place\n%x\nappendFrame\n%x", tag, seq, len(msg), *f, want)
	}
	typ, gotSeq, body, err := openFrame((*f)[4:])
	if err != nil || typ != frameData || gotSeq != seq || binary.LittleEndian.Uint32(body) != tag || !bytes.Equal(body[tagBytes:], msg) {
		t.Fatalf("tag %d seq %d, %d-byte message: openFrame read type %d seq %d body %x, %v", tag, seq, len(msg), typ, gotSeq, body, err)
	}
}

// TestSealFrameMatchesAppendFrame: sealing a DATA frame in the buffer its
// message was built in changes nothing on the wire — empty, small, inline
// and slab-sized messages, on the link's own run and on sessions.
func TestSealFrameMatchesAppendFrame(t *testing.T) {
	for _, n := range []int{0, 2, 10, inlineWriteBytes, 66946} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i*7 + n)
		}
		checkSealed(t, 0, 1, msg)
		checkSealed(t, 0xfffffffe, 1<<63+uint64(n), msg)
	}
}

// TestFiledFramesMatchAppendFrame: what a link writes for a DATA message —
// copied in by SendData or built in place and handed over by SendBuffer,
// staged for the writer or written inline by its sender — is byte for byte
// appendFrame's encoding of that message with its tag and sequence number.
func TestFiledFramesMatchAppendFrame(t *testing.T) {
	gt := newGatedTransport()
	hd, ha := newRecordingHandler(), newRecordingHandler()
	d, a := batchLinkPair(t, gt, "sealed", nil, nil, hd, ha)
	defer closeBoth(d, a)
	large := make([]byte, 2*inlineWriteBytes)
	copy(large, dataMsg(9))
	msgs := [][]byte{dataMsg(1), large, dataMsg(2), large}
	for i, msg := range msgs {
		var err error
		if i < 2 {
			err = d.SendData(7, msg)
		} else {
			b := Buffer(len(msg))
			*b = append(*b, msg...)
			err = d.SendBuffer(7, b)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ha.waitData(t, 7, len(msgs))
	var data [][]byte
	for _, w := range gt.dialed(0).recorded(0) {
		for i, typ := range w.frames {
			if typ == frameData {
				data = append(data, w.wire[i])
			}
		}
	}
	if len(data) != len(msgs) {
		t.Fatalf("%d DATA frames on the wire, want %d", len(data), len(msgs))
	}
	var tag [tagBytes]byte
	for i, msg := range msgs {
		if want := appendFrame(nil, frameData, frameSeq(data[i]), tag[:], msg); !bytes.Equal(data[i], want) {
			t.Errorf("DATA frame %d on the wire differs from appendFrame's encoding", i)
		}
	}
}

// FuzzSealFrame: for any tag, sequence number and message, a DATA frame
// sealed in place is appendFrame's encoding and openFrame accepts it.
func FuzzSealFrame(f *testing.F) {
	f.Add(uint32(0), uint64(1), []byte{7, 0, 1, 2})
	f.Add(uint32(1<<31), uint64(1<<40), []byte{})
	f.Add(uint32(3), uint64(0), bytes.Repeat([]byte{0xa5}, 300))
	f.Fuzz(func(t *testing.T, tag uint32, seq uint64, msg []byte) {
		checkSealed(t, tag, seq, msg)
	})
}
