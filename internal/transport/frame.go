package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Link wire protocol, version 5. Every frame is length-delimited and
// self-checking so the SPI message inside a DATA frame crosses the stream
// byte-identical to its in-process encoding (spi.AppendMessage), and so a
// corrupted or truncated frame is detected at the receiver instead of
// silently poisoning the dataflow:
//
//	frame    := u32 length | u8 type | u64 seq | u32 crc | body
//	HELLO    := u32 magic | u8 version | u8 flags | u16 node | u64 token | u16 nedges | nedges * decl
//	decl     := u16 edge | u8 mode | u8 flags | u32 bytes | u8 protocol | u32 capacity
//	DATA     := SPI-encoded message (edge ID in its first 2 bytes)
//	ACK      := u16 edge | u32 count                (BBS credits / UBS acks)
//	FIN      := u16 edge                            (edge teardown, degradation)
//	CUMACK   := u64 recvSeq                         (transport-level cumulative ack)
//	RESUME   := u32 magic | u8 version | u16 node | u64 token | u64 recvSeq
//	RESUMEOK := u64 recvSeq
//	GOODBYE  := empty                               (graceful shutdown)
//	PING     := u64 timestamp                       (liveness probe)
//	PONG     := u64 timestamp                       (probe echo, RTT sample)
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
// The handshake negotiates nothing (DESIGN.md, "Wire protocol"): HELLO
// carries what the two ends must agree on, a peer that differs in any of
// it or sets an undefined flag bit is refused, and everything else a
// LinkConfig sets is local send policy that any peer interoperates with.
const (
	frameHello    byte = 1
	frameData     byte = 2
	frameAck      byte = 3
	frameGoodbye  byte = 4
	frameCumAck   byte = 5
	frameResume   byte = 6
	frameResumeOK byte = 7
	frameFin      byte = 8
	// 9 is retired (DATAACK, protocol v4); v5 reads it as an unknown type.
	// Session-tagged frames occupy 10..15 (see session.go).
	framePing byte = 16
	framePong byte = 17
	// Control-plane frames use 18 (see ctrl.go).

	helloMagic   uint32 = 0x53504931 // "SPI1"
	helloVersion byte   = 5

	helloBlocked byte = 1 << 0 // HELLO flags: DATA frames carry packed slabs
	declOut      byte = 1 << 0 // decl flags: the declaring side sends DATA
	declNoAck    byte = 1 << 1 // decl flags: UBS acks suppressed (§4 verdict)

	frameHeaderBytes = 17 // u32 length + u8 type + u64 seq + u32 crc
	helloFixedBytes  = 18 // magic + version + flags + node + token + nedges
	declBytes        = 13
	ackBodyBytes     = 6
	finBodyBytes     = 2
	cumAckBodyBytes  = 8
	resumeBodyBytes  = 23 // magic + version + node + token + recvSeq
	pingBodyBytes    = 8  // u64 sender timestamp, echoed verbatim in PONG

	// DefaultMaxFrame bounds one frame; anything larger on the wire is a
	// framing error, protecting the receiver from hostile length fields.
	DefaultMaxFrame = 1 << 24

	// maxHandshakeFrame bounds the frames read before a link exists (HELLO,
	// RESUME, RESUMEOK) by the largest legal one, a HELLO declaring 65535
	// edges: under 1 MiB, so an unauthenticated connection cannot make the
	// accept path allocate MaxFrame on the strength of four bytes.
	maxHandshakeFrame = 13 + helloFixedBytes + 65535*declBytes
)

// numberedFrame reports whether a frame type carries a session sequence
// number, i.e. participates in resend buffering and RESUME replay.
// GOODBYE is numbered so a graceful close cannot outrun lost data: the
// frame only passes the receiver's sequence filter once every prior
// session frame has arrived, and a RESUME replays it like any other.
// Session frames (SOPEN..SFIN) are numbered for the same reason DATA is:
// buffering them until the peer's cumulative ack means a RESUME replay
// recovers every live session's unacknowledged tail — per-session resume
// rides the link-level machinery with no extra state.
// CTRL frames are numbered so the orchestration conversation survives a
// reconnect: a dispatch or completion report lost to a severed connection
// is replayed by RESUME instead of silently vanishing.
func numberedFrame(typ byte) bool {
	return typ == frameData || typ == frameAck || typ == frameFin || typ == frameGoodbye ||
		sessionFrame(typ) || typ == frameCtrl
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
	// noAck marks an edge whose UBS acknowledgements the resynchronization
	// verdict suppresses. The link sets it from LinkConfig.ResyncEdges
	// before the manifest is sent, so the handshake compares it like every
	// other attribute of the edge.
	noAck bool
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

// frameCRC covers everything the length field delimits except the crc
// itself, so any single corrupted byte — including in the type or sequence
// fields — fails verification. The body is taken as head|tail so a
// session frame's sid prefix and its SPI message are checksummed without
// concatenating them first.
func frameCRC(typ byte, seq uint64, head, tail []byte) uint32 {
	var hdr [9]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint64(hdr[1:], seq)
	c := crcSmall(0, hdr[:])
	c = crcSmall(c, head)
	return crc32.Update(c, crc32.IEEETable, tail)
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

// frameReadChunk sizes the read buffer: large enough to swallow what a busy
// peer's writer coalesces into one write, short of a whole slab.
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
	fr.r += 4 + int(n)
	return openFrame(fr.buf[fr.r-int(n) : fr.r])
}

// openFrame splits the bytes a length prefix delimits into the frame's
// fields and verifies its checksum.
func openFrame(f []byte) (typ byte, seq uint64, body []byte, err error) {
	typ = f[0]
	seq = binary.LittleEndian.Uint64(f[1:])
	crc := binary.LittleEndian.Uint32(f[9:])
	body = f[13:]
	if got := frameCRC(typ, seq, nil, body); got != crc {
		return 0, 0, nil, fmt.Errorf("frame checksum mismatch: %#x on the wire, computed %#x", crc, got)
	}
	return typ, seq, body, nil
}

// wirePool recycles encoded frame buffers. Boxing through *[]byte keeps
// Put/Get allocation-free; buffers grow to the largest frame a link
// carries and are then reused at that size, so the steady-state send
// path performs zero allocations.
var wirePool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func putWire(p *[]byte) {
	if p != nil {
		wirePool.Put(p)
	}
}

// appendFrame encodes one frame onto dst. The body is the concatenation
// head|tail (head may be nil); splitting it lets a session frame prepend
// its sid to an SPI message without first joining them in a scratch
// buffer.
func appendFrame(dst []byte, typ byte, seq uint64, head, tail []byte) []byte {
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(13+len(head)+len(tail)))
	hdr[4] = typ
	binary.LittleEndian.PutUint64(hdr[5:], seq)
	binary.LittleEndian.PutUint32(hdr[13:], frameCRC(typ, seq, head, tail))
	dst = append(dst, hdr[:]...)
	dst = append(dst, head...)
	return append(dst, tail...)
}

// buildFrame encodes one frame into a pooled buffer. The returned frame
// owns the buffer; trimLocked recycles it once the peer's cumulative ack
// covers the sequence number.
func buildFrame(typ byte, seq uint64, head, tail []byte) savedFrame {
	buf := wirePool.Get().(*[]byte)
	if n := frameHeaderBytes + len(head) + len(tail); cap(*buf) < n {
		*buf = make([]byte, 0, n)
	}
	*buf = appendFrame((*buf)[:0], typ, seq, head, tail)
	return savedFrame{seq: seq, wire: *buf, buf: buf}
}

func writeFrame(w io.Writer, typ byte, seq uint64, body []byte) error {
	f := buildFrame(typ, seq, nil, body)
	defer putWire(f.buf)
	_, err := w.Write(f.wire)
	return err
}

// readFrame reads one handshake-phase frame (HELLO, RESUME, RESUMEOK): the
// only frames read before a link, and its frameReader, exist. The length
// prefix is checked against maxHandshakeFrame as well as maxFrame before
// anything is allocated for it.
func readFrame(r io.Reader, maxFrame int) (typ byte, seq uint64, body []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < 13 {
		return 0, 0, nil, fmt.Errorf("frame of %d bytes shorter than its header", n)
	}
	if maxFrame > maxHandshakeFrame {
		maxFrame = maxHandshakeFrame
	}
	if int(n) > maxFrame {
		return 0, 0, nil, fmt.Errorf("handshake frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, err
	}
	return openFrame(buf)
}

// encodeHello builds the handshake manifest.
func encodeHello(node uint16, token uint64, edges []EdgeDecl, blocked bool) []byte {
	body := make([]byte, helloFixedBytes+len(edges)*declBytes)
	binary.LittleEndian.PutUint32(body, helloMagic)
	body[4] = helloVersion
	if blocked {
		body[5] = helloBlocked
	}
	binary.LittleEndian.PutUint16(body[6:], node)
	binary.LittleEndian.PutUint64(body[8:], token)
	binary.LittleEndian.PutUint16(body[16:], uint16(len(edges)))
	off := helloFixedBytes
	for _, d := range edges {
		binary.LittleEndian.PutUint16(body[off:], d.ID)
		body[off+2] = d.Mode
		if d.Out {
			body[off+3] |= declOut
		}
		if d.noAck {
			body[off+3] |= declNoAck
		}
		binary.LittleEndian.PutUint32(body[off+4:], d.Bytes)
		body[off+8] = d.Protocol
		binary.LittleEndian.PutUint32(body[off+9:], d.Capacity)
		off += declBytes
	}
	return body
}

// checkVersion is the one protocol version check, shared by HELLO and
// RESUME.
func checkVersion(v byte) error {
	if v != helloVersion {
		return fmt.Errorf("peer speaks link protocol version %d, this side version %d; run the same build on both sides", v, helloVersion)
	}
	return nil
}

// decodeHello accepts exactly what encodeHello emits: one version, an exact
// length, and no flag bit this version does not define, so every accepted
// body re-encodes byte-identically.
func decodeHello(body []byte) (node uint16, token uint64, edges []EdgeDecl, blocked bool, err error) {
	if len(body) < helloFixedBytes {
		return 0, 0, nil, false, fmt.Errorf("hello of %d bytes shorter than fixed header", len(body))
	}
	if m := binary.LittleEndian.Uint32(body); m != helloMagic {
		return 0, 0, nil, false, fmt.Errorf("bad magic %#x", m)
	}
	if err := checkVersion(body[4]); err != nil {
		return 0, 0, nil, false, err
	}
	if f := body[5]; f&^helloBlocked != 0 {
		return 0, 0, nil, false, fmt.Errorf("hello sets unknown flag bits %#x", f&^helloBlocked)
	}
	blocked = body[5]&helloBlocked != 0
	node = binary.LittleEndian.Uint16(body[6:])
	token = binary.LittleEndian.Uint64(body[8:])
	n := int(binary.LittleEndian.Uint16(body[16:]))
	if want := helloFixedBytes + n*declBytes; len(body) != want {
		return 0, 0, nil, false, fmt.Errorf("hello declares %d edges but carries %d bytes, want %d", n, len(body), want)
	}
	edges = make([]EdgeDecl, n)
	off := helloFixedBytes
	for i := range edges {
		f := body[off+3]
		if f&^(declOut|declNoAck) != 0 {
			return 0, 0, nil, false, fmt.Errorf("hello declares edge %d with unknown flag bits %#x",
				binary.LittleEndian.Uint16(body[off:]), f&^(declOut|declNoAck))
		}
		edges[i] = EdgeDecl{
			ID:       binary.LittleEndian.Uint16(body[off:]),
			Mode:     body[off+2],
			Out:      f&declOut != 0,
			Bytes:    binary.LittleEndian.Uint32(body[off+4:]),
			Protocol: body[off+8],
			Capacity: binary.LittleEndian.Uint32(body[off+9:]),
			noAck:    f&declNoAck != 0,
		}
		off += declBytes
	}
	return node, token, edges, blocked, nil
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

func decodeCumAck(body []byte) (recvSeq uint64, err error) {
	if len(body) != cumAckBodyBytes {
		return 0, fmt.Errorf("cumack frame of %d bytes, want %d", len(body), cumAckBodyBytes)
	}
	return binary.LittleEndian.Uint64(body), nil
}

func encodeResume(node uint16, token uint64, recvSeq uint64) []byte {
	body := make([]byte, resumeBodyBytes)
	binary.LittleEndian.PutUint32(body, helloMagic)
	body[4] = helloVersion
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
	if err := checkVersion(body[4]); err != nil {
		return 0, 0, 0, err
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

func decodeResumeOK(body []byte) (recvSeq uint64, err error) {
	if len(body) != cumAckBodyBytes {
		return 0, fmt.Errorf("resume-ok frame of %d bytes, want %d", len(body), cumAckBodyBytes)
	}
	return binary.LittleEndian.Uint64(body), nil
}
