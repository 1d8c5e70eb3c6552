package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Link wire protocol, versions 2 and 3. Every frame is length-delimited
// and self-checking so the SPI message inside a DATA frame crosses the
// stream byte-identical to its in-process encoding (spi.EncodeMessage),
// and so a corrupted or truncated frame is detected at the receiver
// instead of silently poisoning the dataflow:
//
//	frame    := u32 length | u8 type | u64 seq | u32 crc | body
//	HELLO    := u32 magic | u8 version | u16 node | u64 token | u16 nedges | nedges * decl [| u32 features]
//	decl     := u16 edge | u8 mode | u8 flags | u32 bytes | u8 protocol | u32 capacity
//	DATA     := SPI-encoded message (edge ID in its first 2 bytes)
//	ACK      := u16 edge | u32 count                (BBS credits / UBS acks)
//	FIN      := u16 edge                            (edge teardown, degradation)
//	CUMACK   := u64 recvSeq                         (transport-level cumulative ack)
//	RESUME   := u32 magic | u8 version | u16 node | u64 token | u64 recvSeq
//	RESUMEOK := u64 recvSeq
//	GOODBYE  := empty                               (graceful shutdown)
//	DATAACK  := u8 n | n * (u16 edge | u32 count) | SPI-encoded message
//	PING     := u64 timestamp                       (liveness probe)
//	PONG     := u64 timestamp                       (probe echo, RTT sample)
//	RESYNC   := u32 setcrc | u16 n | n * u16 edge   (ack-suppression set)
//
// length covers type+seq+crc+body; crc is CRC-32 (IEEE) over type|seq|body.
// seq is a per-direction monotonic sequence number carried by the session
// frames (DATA, ACK, FIN) — those are buffered by the sender until the
// peer's CUMACK covers them, which is what makes a RESUME handshake able to
// replay exactly the unacknowledged suffix after a connection is re-dialed.
// Control frames (HELLO, CUMACK, RESUME, RESUMEOK, GOODBYE, PING, PONG)
// carry seq 0 and are never replayed. All integers are little-endian,
// matching the SPI message headers.
//
// Version 3 appends a u32 feature-flag field to HELLO. A version-2 hello
// (no field) means "no optional features". DATAACK — a DATA frame with
// piggybacked acknowledgements prefixed to the SPI message — is only
// ever sent toward a peer that advertised featPiggyAck; a hello carrying
// features is emitted as version 3, a featureless one as version 2, so a
// link with no optional features negotiates a byte-identical handshake
// with an old peer.
const (
	frameHello    byte = 1
	frameData     byte = 2
	frameAck      byte = 3
	frameGoodbye  byte = 4
	frameCumAck   byte = 5
	frameResume   byte = 6
	frameResumeOK byte = 7
	frameFin      byte = 8
	frameDataAck  byte = 9
	// Session-tagged frames occupy 10..15 (see session.go).
	framePing byte = 16
	framePong byte = 17
	// Control-plane frames use 18 (see ctrl.go).

	// frameResync carries the sender's negotiated ack-suppression set: the
	// sorted edge IDs whose UBS acknowledgements the §4 resynchronization
	// verdict proved redundant. Sent once after a HELLO handshake and again
	// after every RESUME (it is unnumbered, so replay never redelivers it);
	// each side verifies the peer's set matches its own byte-for-byte
	// before suppressing anything.
	frameResync byte = 19

	helloMagic      uint32 = 0x53504931 // "SPI1"
	helloVersion    byte   = 3
	helloVersionMin byte   = 2

	// featPiggyAck advertises that this side understands inbound DATAACK
	// frames (acks piggybacked on data).
	featPiggyAck uint32 = 1 << 0
	// featBlocked declares that this side's DATA frames carry packed
	// multi-token slabs on block-aligned edges (vectorized execution).
	// This bit is a requirement, not an option: the handshake rejects a
	// peer whose bit disagrees, since the two payload layouts cannot
	// interoperate.
	featBlocked uint32 = 1 << 1
	// featHeartbeat advertises that this side understands PING/PONG
	// liveness probes. Mutual-optional like featPiggyAck: probes flow only
	// when both sides advertised it, and an old peer simply negotiates
	// heartbeats off.
	featHeartbeat uint32 = 1 << 3
	// featResync advertises that this side computed a resynchronization
	// ack-suppression set and understands RESYNC frames. Mutual-optional:
	// suppression activates only when both sides advertise it AND their
	// RESYNC sets match exactly; an old peer simply negotiates it off and
	// receives full acking.
	featResync uint32 = 1 << 5

	frameHeaderBytes = 17 // u32 length + u8 type + u64 seq + u32 crc
	helloFixedBytes  = 17 // magic + version + node + token + nedges
	declBytes        = 13
	featureBytes     = 4
	ackBodyBytes     = 6
	finBodyBytes     = 2
	cumAckBodyBytes  = 8
	resumeBodyBytes  = 23 // magic + version + node + token + recvSeq
	piggyEntryBytes  = 6  // u16 edge | u32 count
	pingBodyBytes    = 8  // u64 sender timestamp, echoed verbatim in PONG
	resyncFixedBytes = 6  // u32 setcrc | u16 n

	// DefaultMaxFrame bounds one frame; anything larger on the wire is a
	// framing error, protecting the receiver from hostile length fields.
	DefaultMaxFrame = 1 << 24
)

// numberedFrame reports whether a frame type carries a session sequence
// number, i.e. participates in resend buffering and RESUME replay.
// GOODBYE is numbered so a graceful close cannot outrun lost data: the
// frame only passes the receiver's sequence filter once every prior
// session frame has arrived, and a RESUME replays it like any other.
// DATAACK is numbered like the DATA frame it is: replaying it redelivers
// the piggybacked acks too, which the ack counters absorb idempotently
// because the sequence filter drops the duplicate before dispatch.
// Session frames (SOPEN..SFIN) are numbered for the same reason DATA is:
// buffering them until the peer's cumulative ack means a RESUME replay
// recovers every live session's unacknowledged tail — per-session resume
// rides the link-level machinery with no extra state.
// CTRL frames are numbered so the orchestration conversation survives a
// reconnect: a dispatch or completion report lost to a severed connection
// is replayed by RESUME instead of silently vanishing.
func numberedFrame(typ byte) bool {
	return typ == frameData || typ == frameAck || typ == frameFin || typ == frameGoodbye ||
		typ == frameDataAck || sessionFrame(typ) || typ == frameCtrl
}

// EdgeDecl is one edge's entry in the handshake manifest. Both sides of a
// link declare every SPI edge they expect to carry; the handshake fails
// unless the manifests agree edge-for-edge with complementary directions.
type EdgeDecl struct {
	// ID is the interprocessor edge ID (spi.EdgeID).
	ID uint16
	// Mode is the SPI framing (0 = static, 1 = dynamic), recorded so a
	// misconfigured peer is rejected at connect time, not mid-stream.
	Mode uint8
	// Out is true when the local side sends DATA on this edge (and
	// receives ACKs); the peer must declare the mirror image.
	Out bool
	// Bytes is the static payload size or the dynamic b_max bound.
	Bytes uint32
	// Protocol is the buffer synchronization protocol (0 = BBS, 1 = UBS).
	Protocol uint8
	// Capacity is the BBS buffer capacity in messages (0 for UBS).
	Capacity uint32
}

// frameCRC covers everything the length field delimits except the crc
// itself, so any single corrupted byte — including in the type or sequence
// fields — fails verification.
func frameCRC(typ byte, seq uint64, body []byte) uint32 {
	return frameCRC2(typ, seq, nil, body)
}

// crcSmall folds p into crc with the per-byte IEEE table. Identical math
// to crc32.Update, but a leaf the escape analyzer can see through:
// crc32.Update dispatches through a func variable, so every argument
// leaks and stack-resident prefixes (the 9-byte type|seq header, a
// session-ID head, a fixed-size ack body) would each cost a heap
// allocation per frame. Large payloads still go through crc32.Update for
// its vectorized kernels.
func crcSmall(crc uint32, p []byte) uint32 {
	crc = ^crc
	for _, v := range p {
		crc = crc32.IEEETable[byte(crc)^v] ^ (crc >> 8)
	}
	return ^crc
}

// frameCRC2 computes the frame CRC over a body split into head|tail, so
// the DATAACK encoder can checksum the piggyback prefix and the SPI
// message without concatenating them first.
func frameCRC2(typ byte, seq uint64, head, tail []byte) uint32 {
	var hdr [9]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint64(hdr[1:], seq)
	c := crcSmall(0, hdr[:])
	c = crcSmall(c, head)
	return crc32.Update(c, crc32.IEEETable, tail)
}

// putFrameHeader writes the 17-byte frame header into wire, which must
// have room for it. bodyLen is the length of the body that follows.
func putFrameHeader(wire []byte, typ byte, seq uint64, crc uint32, bodyLen int) {
	binary.LittleEndian.PutUint32(wire, uint32(13+bodyLen))
	wire[4] = typ
	binary.LittleEndian.PutUint64(wire[5:], seq)
	binary.LittleEndian.PutUint32(wire[13:], crc)
}

// frameReader reads frames through an internal chunk buffer: one large
// Read pulls in as many coalesced frames as the connection has ready,
// and subsequent frames are served from memory. Against a batching peer
// this collapses the per-frame read syscalls (and, on net.Pipe, the
// per-read rendezvous) into roughly one per batch, and the steady-state
// receive path performs no per-frame allocations. Each instance owns one
// connection's read side exclusively; the returned body aliases the
// buffer and is valid only until the next read call — every handler the
// read loop dispatches to either consumes the bytes synchronously or
// copies them (see Handler).
type frameReader struct {
	buf    []byte // unread bytes are buf[r:w]
	r, w   int
	pooled *[]byte // buf's box, when it came from readChunks
}

// frameReadChunk sizes the read buffer: large enough to swallow a full
// default batch (BatchConfig MaxBytes 64 KiB) in one read.
const frameReadChunk = 64 << 10

// readChunks recycles read buffers across links: a fresh 64 KiB buffer is
// zeroed and page-faulted in, which made it a large share of what setting
// up a short-lived link costs.
var readChunks = sync.Pool{New: func() any { b := make([]byte, frameReadChunk); return &b }}

// release returns the buffer once the connection's reader has exited.
func (fr *frameReader) release() {
	if fr.pooled != nil {
		readChunks.Put(fr.pooled)
	}
	*fr = frameReader{}
}

// fill blocks until at least need unread bytes are buffered. It never
// reads more than the connection has ready, so buffering adds no
// latency to sparse traffic.
func (fr *frameReader) fill(rd io.Reader, need int) error {
	if fr.w-fr.r >= need {
		return nil
	}
	if size := cap(fr.buf); size < need || size < frameReadChunk {
		size = frameReadChunk
		if need > size {
			size = need
		}
		var nb []byte
		var box *[]byte
		if size == frameReadChunk {
			box = readChunks.Get().(*[]byte)
			nb = *box
		} else {
			nb = make([]byte, size)
		}
		fr.w = copy(nb, fr.buf[fr.r:fr.w])
		if fr.pooled != nil {
			readChunks.Put(fr.pooled) // outgrown by an oversized frame
		}
		fr.buf, fr.pooled = nb, box
		fr.r = 0
	} else if fr.r+need > size {
		fr.w = copy(fr.buf[:size], fr.buf[fr.r:fr.w])
		fr.r = 0
	}
	fr.buf = fr.buf[:cap(fr.buf)]
	for fr.w-fr.r < need {
		n, err := rd.Read(fr.buf[fr.w:])
		fr.w += n
		if fr.w-fr.r >= need {
			return nil
		}
		if err != nil {
			if err == io.EOF && fr.w > fr.r {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

func (fr *frameReader) read(r io.Reader, maxFrame int) (typ byte, seq uint64, body []byte, err error) {
	if err := fr.fill(r, 4); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(fr.buf[fr.r:])
	if n < 13 {
		return 0, 0, nil, fmt.Errorf("frame of %d bytes shorter than its header", n)
	}
	if int(n) > maxFrame {
		return 0, 0, nil, fmt.Errorf("frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if err := fr.fill(r, 4+int(n)); err != nil {
		return 0, 0, nil, err
	}
	f := fr.buf[fr.r+4 : fr.r+4+int(n)]
	fr.r += 4 + int(n)
	typ = f[0]
	seq = binary.LittleEndian.Uint64(f[1:])
	crc := binary.LittleEndian.Uint32(f[9:])
	body = f[13:]
	if got := frameCRC(typ, seq, body); got != crc {
		return 0, 0, nil, fmt.Errorf("frame checksum mismatch: %#x on the wire, computed %#x", crc, got)
	}
	return typ, seq, body, nil
}

// splitDataAck splits a DATAACK body into its raw piggybacked-ack entries
// (n consecutive piggyEntryBytes records) and the SPI message they rode
// on. The message must be at least an SPI header (2 bytes).
func splitDataAck(body []byte) (acks []byte, msg []byte, err error) {
	if len(body) < 1 {
		return nil, nil, fmt.Errorf("dataack frame with empty body")
	}
	n := int(body[0])
	if len(body) < 1+n*piggyEntryBytes+2 {
		return nil, nil, fmt.Errorf("dataack frame of %d bytes too short for %d piggybacked acks plus an SPI header", len(body), n)
	}
	return body[1 : 1+n*piggyEntryBytes], body[1+n*piggyEntryBytes:], nil
}

func writeFrame(w io.Writer, typ byte, seq uint64, body []byte) error {
	hdr := make([]byte, frameHeaderBytes, frameHeaderBytes+len(body))
	binary.LittleEndian.PutUint32(hdr, uint32(13+len(body)))
	hdr[4] = typ
	binary.LittleEndian.PutUint64(hdr[5:], seq)
	binary.LittleEndian.PutUint32(hdr[13:], frameCRC(typ, seq, body))
	_, err := w.Write(append(hdr, body...))
	return err
}

func readFrame(r io.Reader, maxFrame int) (typ byte, seq uint64, body []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < 13 {
		return 0, 0, nil, fmt.Errorf("frame of %d bytes shorter than its header", n)
	}
	if int(n) > maxFrame {
		return 0, 0, nil, fmt.Errorf("frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, err
	}
	typ = buf[0]
	seq = binary.LittleEndian.Uint64(buf[1:])
	crc := binary.LittleEndian.Uint32(buf[9:])
	body = buf[13:]
	if got := frameCRC(typ, seq, body); got != crc {
		return 0, 0, nil, fmt.Errorf("frame checksum mismatch: %#x on the wire, computed %#x", crc, got)
	}
	return typ, seq, body, nil
}

// encodeHello builds the handshake manifest. A hello advertising no
// features is emitted in the version-2 format (no trailing feature
// field), byte-identical to pre-batching links, so feature-free peers of
// either age interoperate; features force version 3.
func encodeHello(node uint16, token uint64, edges []EdgeDecl, features uint32) []byte {
	size := helloFixedBytes + len(edges)*declBytes
	version := helloVersionMin
	if features != 0 {
		size += featureBytes
		version = helloVersion
	}
	body := make([]byte, size)
	binary.LittleEndian.PutUint32(body, helloMagic)
	body[4] = version
	binary.LittleEndian.PutUint16(body[5:], node)
	binary.LittleEndian.PutUint64(body[7:], token)
	binary.LittleEndian.PutUint16(body[15:], uint16(len(edges)))
	off := helloFixedBytes
	for _, d := range edges {
		binary.LittleEndian.PutUint16(body[off:], d.ID)
		body[off+2] = d.Mode
		if d.Out {
			body[off+3] = 1
		}
		binary.LittleEndian.PutUint32(body[off+4:], d.Bytes)
		body[off+8] = d.Protocol
		binary.LittleEndian.PutUint32(body[off+9:], d.Capacity)
		off += declBytes
	}
	if features != 0 {
		binary.LittleEndian.PutUint32(body[off:], features)
	}
	return body
}

func decodeHello(body []byte) (node uint16, token uint64, edges []EdgeDecl, features uint32, err error) {
	if len(body) < helloFixedBytes {
		return 0, 0, nil, 0, fmt.Errorf("hello of %d bytes shorter than fixed header", len(body))
	}
	if m := binary.LittleEndian.Uint32(body); m != helloMagic {
		return 0, 0, nil, 0, fmt.Errorf("bad magic %#x", m)
	}
	v := body[4]
	if v < helloVersionMin || v > helloVersion {
		return 0, 0, nil, 0, fmt.Errorf("protocol version %d, want %d..%d", v, helloVersionMin, helloVersion)
	}
	node = binary.LittleEndian.Uint16(body[5:])
	token = binary.LittleEndian.Uint64(body[7:])
	n := int(binary.LittleEndian.Uint16(body[15:]))
	want := helloFixedBytes + n*declBytes
	if v >= 3 {
		want += featureBytes
	}
	if len(body) != want {
		return 0, 0, nil, 0, fmt.Errorf("hello v%d declares %d edges but carries %d bytes, want %d", v, n, len(body), want)
	}
	edges = make([]EdgeDecl, n)
	off := helloFixedBytes
	for i := range edges {
		edges[i] = EdgeDecl{
			ID:       binary.LittleEndian.Uint16(body[off:]),
			Mode:     body[off+2],
			Out:      body[off+3] != 0,
			Bytes:    binary.LittleEndian.Uint32(body[off+4:]),
			Protocol: body[off+8],
			Capacity: binary.LittleEndian.Uint32(body[off+9:]),
		}
		off += declBytes
	}
	if v >= 3 {
		features = binary.LittleEndian.Uint32(body[off:])
	}
	return node, token, edges, features, nil
}

func encodeAck(edge uint16, count uint32) []byte {
	body := make([]byte, ackBodyBytes)
	binary.LittleEndian.PutUint16(body, edge)
	binary.LittleEndian.PutUint32(body[2:], count)
	return body
}

func decodeAck(body []byte) (edge uint16, count uint32, err error) {
	if len(body) != ackBodyBytes {
		return 0, 0, fmt.Errorf("ack frame of %d bytes, want %d", len(body), ackBodyBytes)
	}
	return binary.LittleEndian.Uint16(body), binary.LittleEndian.Uint32(body[2:]), nil
}

func encodeFin(edge uint16) []byte {
	body := make([]byte, finBodyBytes)
	binary.LittleEndian.PutUint16(body, edge)
	return body
}

func decodeFin(body []byte) (edge uint16, err error) {
	if len(body) != finBodyBytes {
		return 0, fmt.Errorf("fin frame of %d bytes, want %d", len(body), finBodyBytes)
	}
	return binary.LittleEndian.Uint16(body), nil
}

func encodeCumAck(recvSeq uint64) []byte {
	body := make([]byte, cumAckBodyBytes)
	binary.LittleEndian.PutUint64(body, recvSeq)
	return body
}

func decodeCumAck(body []byte) (recvSeq uint64, err error) {
	if len(body) != cumAckBodyBytes {
		return 0, fmt.Errorf("cumack frame of %d bytes, want %d", len(body), cumAckBodyBytes)
	}
	return binary.LittleEndian.Uint64(body), nil
}

func encodeResume(node uint16, token uint64, recvSeq uint64) []byte {
	body := make([]byte, resumeBodyBytes)
	binary.LittleEndian.PutUint32(body, helloMagic)
	// The session token, not the version byte, is what authenticates a
	// RESUME; emit the minimum version so an old peer accepts it.
	body[4] = helloVersionMin
	binary.LittleEndian.PutUint16(body[5:], node)
	binary.LittleEndian.PutUint64(body[7:], token)
	binary.LittleEndian.PutUint64(body[15:], recvSeq)
	return body
}

func decodeResume(body []byte) (node uint16, token uint64, recvSeq uint64, err error) {
	if len(body) != resumeBodyBytes {
		return 0, 0, 0, fmt.Errorf("resume frame of %d bytes, want %d", len(body), resumeBodyBytes)
	}
	if m := binary.LittleEndian.Uint32(body); m != helloMagic {
		return 0, 0, 0, fmt.Errorf("bad resume magic %#x", m)
	}
	if v := body[4]; v < helloVersionMin || v > helloVersion {
		return 0, 0, 0, fmt.Errorf("resume protocol version %d, want %d..%d", v, helloVersionMin, helloVersion)
	}
	node = binary.LittleEndian.Uint16(body[5:])
	token = binary.LittleEndian.Uint64(body[7:])
	recvSeq = binary.LittleEndian.Uint64(body[15:])
	return node, token, recvSeq, nil
}

// encodePing writes a PING/PONG body: the sender's monotonic timestamp in
// nanoseconds. A PONG echoes the PING's timestamp verbatim, so the prober
// computes the round-trip time without any clock agreement between peers.
func encodePing(dst []byte, ts uint64) {
	binary.LittleEndian.PutUint64(dst, ts)
}

func decodePing(body []byte) (ts uint64, err error) {
	if len(body) != pingBodyBytes {
		return 0, fmt.Errorf("ping frame of %d bytes, want %d", len(body), pingBodyBytes)
	}
	return binary.LittleEndian.Uint64(body), nil
}

// encodeResyncSet writes a RESYNC body: strictly ascending edge IDs
// prefixed by their count and a CRC-32 (IEEE) over the ID bytes. The CRC
// is the "hash" both sides compare before suppressing acks — a cheap,
// order-sensitive fingerprint of the canonical encoding — and the IDs
// follow in full so a mismatch can be diagnosed, not just detected.
// ids must already be sorted ascending with no duplicates.
func encodeResyncSet(ids []uint16) []byte {
	body := make([]byte, resyncFixedBytes+2*len(ids))
	binary.LittleEndian.PutUint16(body[4:], uint16(len(ids)))
	for i, id := range ids {
		binary.LittleEndian.PutUint16(body[resyncFixedBytes+2*i:], id)
	}
	binary.LittleEndian.PutUint32(body, crcSmall(0, body[resyncFixedBytes:]))
	return body
}

// decodeResyncSet validates and decodes a RESYNC body. It enforces the
// canonical form — exact length, strictly ascending IDs, and a matching
// set CRC — so every accepted body re-encodes byte-identically and the
// equality check between both ends' sets cannot be confused by
// duplicates or ordering.
func decodeResyncSet(body []byte) (ids []uint16, setcrc uint32, err error) {
	if len(body) < resyncFixedBytes {
		return nil, 0, fmt.Errorf("resync frame of %d bytes shorter than fixed header", len(body))
	}
	n := int(binary.LittleEndian.Uint16(body[4:]))
	if len(body) != resyncFixedBytes+2*n {
		return nil, 0, fmt.Errorf("resync frame declares %d edges but carries %d bytes, want %d",
			n, len(body), resyncFixedBytes+2*n)
	}
	setcrc = binary.LittleEndian.Uint32(body)
	if got := crcSmall(0, body[resyncFixedBytes:]); got != setcrc {
		return nil, 0, fmt.Errorf("resync set checksum mismatch: %#x on the wire, computed %#x", setcrc, got)
	}
	ids = make([]uint16, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint16(body[resyncFixedBytes+2*i:])
		if i > 0 && ids[i-1] >= ids[i] {
			return nil, 0, fmt.Errorf("resync set not strictly ascending at entry %d (%d after %d)",
				i, ids[i], ids[i-1])
		}
	}
	return ids, setcrc, nil
}

// equalU16 reports whether two edge-ID slices are identical — the
// suppression-set comparison both link ends run on RESYNC receipt.
func equalU16(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func encodeResumeOK(recvSeq uint64) []byte {
	body := make([]byte, cumAckBodyBytes)
	binary.LittleEndian.PutUint64(body, recvSeq)
	return body
}

func decodeResumeOK(body []byte) (recvSeq uint64, err error) {
	if len(body) != cumAckBodyBytes {
		return 0, fmt.Errorf("resume-ok frame of %d bytes, want %d", len(body), cumAckBodyBytes)
	}
	return binary.LittleEndian.Uint64(body), nil
}
