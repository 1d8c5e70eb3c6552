package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Link wire protocol, version 8. Every frame is length-delimited and
// self-checking so the SPI message inside a DATA frame crosses the stream
// byte-identical to its in-process encoding (spi.AppendMessage), and so a
// corrupted or truncated frame is detected at the receiver instead of
// silently poisoning the dataflow:
//
//	frame    := u32 length | u8 type | u64 seq | u32 crc | body
//	HELLO    := u32 magic | u8 version | u8 flags | u16 node | u64 token | u16 nedges | nedges * decl
//	decl     := u16 edge | u8 mode | u8 flags | u32 bytes | u8 protocol | u32 capacity
//	DATA     := u32 tag | SPI-encoded message (edge ID in its first 2 bytes)
//	ACK      := u32 tag | u16 edge | u32 count  (UBS acks; a BBS edge sends none)
//	FIN      := u32 tag | u16 edge              (edge teardown, degradation)
//	CUMACK   := u64 recvSeq                     (transport-level cumulative ack)
//	RESUME   := u32 magic | u8 version | u16 node | u64 token | u64 recvSeq
//	RESUMEOK := u64 recvSeq
//	GOODBYE  := empty                           (graceful shutdown)
//	PING     := u64 timestamp | u64 sendSeq     (liveness probe)
//	PONG     := u64 timestamp | u64 sendSeq     (probe echo, RTT sample)
//	CTRL     := u8 op | payload                 (control plane, see ctrl.go)
//
// The tag names the run a DATA, ACK or FIN belongs to: 0 is the link's own
// run (Handler), any other value a session multiplexed over the link
// (SessionHandler, see session.go).
//
// length covers type+seq+crc+body; crc is CRC-32 (IEEE) over type|seq|body.
// seq is a per-direction monotonic sequence number carried by the numbered
// frames (DATA, ACK, FIN, GOODBYE, CTRL) — those are buffered by the sender
// until the peer's CUMACK covers them, which is what makes a RESUME
// handshake able to replay exactly the unacknowledged suffix after a
// connection is re-dialed. The others (HELLO, CUMACK, RESUME, RESUMEOK,
// PING, PONG) carry seq 0 and are never replayed; a probe's body carries
// its sender's sendSeq instead, and follows every frame up to it on the
// wire, so a receiver behind it has lost frames that nothing numbered
// followed. All integers are little-endian, matching the SPI headers.
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
	// 9..15 are retired (9 DATAACK with protocol v4, 10..15 the session
	// frame family with v5); later versions read them as unknown types.
	framePing byte = 16
	framePong byte = 17
	frameCtrl byte = 18

	helloMagic uint32 = 0x53504931 // "SPI1"
	// helloVersion 8: PING and PONG carry the sender's sendSeq, which a v7
	// peer's 8-byte probes lack.
	helloVersion byte = 8

	helloBlocked byte = 1 << 0 // HELLO flags: DATA frames carry packed slabs
	declOut      byte = 1 << 0 // decl flags: the declaring side sends DATA
	declNoAck    byte = 1 << 1 // decl flags: UBS acks suppressed (§4 verdict)

	frameHeaderBytes = 17 // u32 length + u8 type + u64 seq + u32 crc
	helloFixedBytes  = 18 // magic + version + flags + node + token + nedges
	declBytes        = 13
	tagBytes         = 4
	dataMinBytes     = tagBytes + 2 // tag + SPI edge ID
	ackBodyBytes     = tagBytes + 6 // tag + edge + count
	finBodyBytes     = tagBytes + 2 // tag + edge
	cumAckBodyBytes  = 8
	resumeBodyBytes  = 23 // magic + version + node + token + recvSeq
	pingBodyBytes    = 16 // u64 timestamp (a PONG echoes the PING's) + u64 sendSeq

	// maxFrame bounds one frame; anything larger on the wire is a framing
	// error, protecting the receiver from hostile length fields.
	maxFrame = 1 << 24

	// maxHandshakeFrame bounds the frames read before a link exists (HELLO,
	// RESUME, RESUMEOK) by the largest legal one, a HELLO declaring 65535
	// edges: under 1 MiB, so an unauthenticated connection cannot make the
	// accept path allocate maxFrame on the strength of four bytes.
	maxHandshakeFrame = 13 + helloFixedBytes + 65535*declBytes
)

// numberedFrame reports whether a frame type carries a sequence number,
// i.e. participates in resend buffering and RESUME replay. DATA, ACK and
// FIN are, whatever their tag, so a RESUME replay recovers every live
// session's unacknowledged tail with no per-session state. GOODBYE is
// numbered so a graceful close cannot outrun lost data: the frame only
// passes the receiver's sequence filter once every prior frame has
// arrived. CTRL frames are numbered so a control conversation survives a
// reconnect: a message lost to a severed connection is replayed instead of
// silently vanishing.
func numberedFrame(typ byte) bool {
	return typ == frameData || typ == frameAck || typ == frameFin || typ == frameGoodbye || typ == frameCtrl
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

// frameCRC covers everything the length field delimits except the crc
// itself — typSeq, the type and sequence number in front of it, and the
// body behind it — so any single corrupted byte, including in the type or
// sequence fields, fails verification. Both slices are read from an
// encoded frame, never from a caller's buffer: crc32.Update dispatches
// through a func variable, which makes the escape analyzer move whatever
// it is handed to the heap, and a sender's stack-built tag or control
// payload would cost an allocation per frame. The 9-byte typSeq takes the
// per-byte table inline, cheaper than a second call into crc32.
func frameCRC(typSeq, body []byte) uint32 {
	crc := ^uint32(0)
	for _, v := range typSeq {
		crc = crc32.IEEETable[byte(crc)^v] ^ (crc >> 8)
	}
	return crc32.Update(^crc, crc32.IEEETable, body)
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
	buf  []byte // unread bytes are buf[r:w]
	r, w int
	box  *[]byte // buf's buffer from the free list
}

// frameReadChunk sizes the read buffer: large enough to swallow what a busy
// peer's writer coalesces into one write. A frame larger than that, such
// as a slab, gets a buffer of its size.
const frameReadChunk = 64 << 10

// release gives the buffer back to the free list once the connection's
// reader has exited: zeroing and faulting in a fresh one was a large share
// of what setting up a short-lived link cost.
func (fr *frameReader) release() {
	Recycle(fr.box)
	*fr = frameReader{}
}

// fill blocks until at least need unread bytes are buffered. It never
// reads more than the connection has ready, so buffering adds no
// latency to sparse traffic.
func (fr *frameReader) fill(rd io.Reader, need int) error {
	if fr.w-fr.r >= need {
		return nil
	}
	if cap(fr.buf) < need {
		box := Buffer(max(need, frameReadChunk))
		nb := (*box)[:cap(*box)]
		fr.w = copy(nb, fr.buf[fr.r:fr.w])
		Recycle(fr.box) // outgrown by an oversized frame
		fr.buf, fr.box, fr.r = nb, box, 0
	} else if fr.r+need > cap(fr.buf) {
		fr.w = copy(fr.buf[:cap(fr.buf)], fr.buf[fr.r:fr.w])
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

func (fr *frameReader) read(r io.Reader) (typ byte, seq uint64, body []byte, err error) {
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
	if got := frameCRC(f[:9], body); got != crc {
		return 0, 0, nil, fmt.Errorf("frame checksum mismatch: %#x on the wire, computed %#x", crc, got)
	}
	return typ, seq, body, nil
}

// The free list: every message, frame and read buffer comes from this one
// last-in-first-out list under one lock and goes back to it. Not a
// sync.Pool, which loses what sat through two collections, so a cold
// deployment rebuilt its buffers whenever the collector had run. It keeps
// freeMax buffers, room for what a deployment has in flight; an unbounded
// queue's run-ahead past that goes to a Pool the collector may empty.
var free struct {
	sync.Mutex
	bufs []*[]byte
}

var freeOverflow = sync.Pool{New: func() any { return new([]byte) }}

const freeMax = 512

// Headroom is the room a message buffer keeps in front of the SPI message
// it carries: the DATA frame's header and tag, which the link writes in
// place when it files the buffer, so a message is never copied into a frame.
const Headroom = frameHeaderBytes + tagBytes

// Buffer takes a buffer from the free list with room for an n-byte SPI
// message: length Headroom, capacity at least Headroom+n, so the message
// appended to it never regrows it. It takes the topmost buffer of up to
// about twice that: a 64 KiB read buffer carrying an ack frame is lost with
// the frame when a link is aborted, and the next link buys its own.
func Buffer(n int) *[]byte {
	need := Headroom + n
	free.Lock()
	for i := len(free.bufs) - 1; i >= 0; i-- {
		if p := free.bufs[i]; cap(*p) >= need && cap(*p) <= 2*need+64 {
			last := len(free.bufs) - 1
			free.bufs[i], free.bufs[last] = free.bufs[last], nil
			free.bufs = free.bufs[:last]
			free.Unlock()
			*p = (*p)[:Headroom]
			return p
		}
	}
	free.Unlock()
	p := freeOverflow.Get().(*[]byte)
	if cap(*p) < need {
		*p = make([]byte, Headroom, max(need, 64))
	}
	*p = (*p)[:Headroom]
	return p
}

// Recycle gives buffers back to the free list; nil entries are skipped.
func Recycle(bufs ...*[]byte) {
	free.Lock()
	defer free.Unlock()
	for _, p := range bufs {
		switch {
		case p == nil:
		case len(free.bufs) < freeMax:
			free.bufs = append(free.bufs, p)
		default:
			freeOverflow.Put(p)
		}
	}
}

// frameOf takes a buffer from the free list and appends the body head|tail
// behind room for the frame header, for sealFrame to fill in.
func frameOf(head, tail []byte) *[]byte {
	f := Buffer(len(head) + len(tail))
	*f = append(append((*f)[:frameHeaderBytes], head...), tail...)
	return f
}

// sealFrame writes the header of the frame f in place: the length, type and
// sequence number, and the checksum over them and the body behind.
func sealFrame(f []byte, typ byte, seq uint64) {
	binary.LittleEndian.PutUint32(f, uint32(len(f)-4))
	f[4] = typ
	binary.LittleEndian.PutUint64(f[5:], seq)
	binary.LittleEndian.PutUint32(f[13:], frameCRC(f[4:13], f[frameHeaderBytes:]))
}

// frameSeq reads a sealed frame's sequence number.
func frameSeq(f []byte) uint64 { return binary.LittleEndian.Uint64(f[5:]) }

// appendFrame encodes one frame onto dst. The body is the concatenation
// head|tail (head may be nil); splitting it lets a frame prepend its tag
// or opcode to an SPI message or payload without first joining them in a
// scratch buffer. The checksum is computed over the bytes appended to dst,
// so neither head nor tail escapes.
func appendFrame(dst []byte, typ byte, seq uint64, head, tail []byte) []byte {
	start := len(dst)
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(13+len(head)+len(tail)))
	hdr[4] = typ
	binary.LittleEndian.PutUint64(hdr[5:], seq)
	dst = append(dst, hdr[:]...)
	dst = append(dst, head...)
	dst = append(dst, tail...)
	f := dst[start+4:]
	binary.LittleEndian.PutUint32(f[9:], frameCRC(f[:9], f[13:]))
	return dst
}

func writeFrame(w io.Writer, typ byte, seq uint64, body []byte) error {
	f := frameOf(nil, body)
	defer Recycle(f)
	sealFrame(*f, typ, seq)
	_, err := w.Write(*f)
	return err
}

// readFrame reads one handshake-phase frame (HELLO, RESUME, RESUMEOK): the
// only frames read before a link, and its frameReader, exist. The length
// prefix is checked against maxHandshakeFrame before anything is allocated
// for it.
func readFrame(r io.Reader) (typ byte, seq uint64, body []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < 13 {
		return 0, 0, nil, fmt.Errorf("frame of %d bytes shorter than its header", n)
	}
	if n > maxHandshakeFrame {
		return 0, 0, nil, fmt.Errorf("handshake frame of %d bytes exceeds limit %d", n, maxHandshakeFrame)
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

// splitData splits a DATA body into its tag and the SPI message, which
// must be at least an edge ID.
func splitData(body []byte) (tag uint32, msg []byte, err error) {
	if len(body) < dataMinBytes {
		return 0, nil, fmt.Errorf("data frame of %d bytes shorter than a tag plus an SPI header", len(body))
	}
	return binary.LittleEndian.Uint32(body), body[tagBytes:], nil
}

// putAck encodes an ACK body.
func putAck(body *[ackBodyBytes]byte, tag uint32, edge uint16, count uint32) {
	binary.LittleEndian.PutUint32(body[:], tag)
	binary.LittleEndian.PutUint16(body[tagBytes:], edge)
	binary.LittleEndian.PutUint32(body[tagBytes+2:], count)
}

func decodeAck(body []byte) (tag uint32, edge uint16, count uint32, err error) {
	if len(body) != ackBodyBytes {
		return 0, 0, 0, fmt.Errorf("ack frame of %d bytes, want %d", len(body), ackBodyBytes)
	}
	return binary.LittleEndian.Uint32(body), binary.LittleEndian.Uint16(body[tagBytes:]),
		binary.LittleEndian.Uint32(body[tagBytes+2:]), nil
}

// putFin encodes a FIN body.
func putFin(body *[finBodyBytes]byte, tag uint32, edge uint16) {
	binary.LittleEndian.PutUint32(body[:], tag)
	binary.LittleEndian.PutUint16(body[tagBytes:], edge)
}

func decodeFin(body []byte) (tag uint32, edge uint16, err error) {
	if len(body) != finBodyBytes {
		return 0, 0, fmt.Errorf("fin frame of %d bytes, want %d", len(body), finBodyBytes)
	}
	return binary.LittleEndian.Uint32(body), binary.LittleEndian.Uint16(body[tagBytes:]), nil
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

// encodePing writes a PING/PONG body: the prober's monotonic timestamp in
// nanoseconds and the sender's last assigned sequence number. A PONG
// echoes the PING's timestamp verbatim, so the prober computes the
// round-trip time without any clock agreement between peers.
func encodePing(dst []byte, ts, seq uint64) {
	binary.LittleEndian.PutUint64(dst, ts)
	binary.LittleEndian.PutUint64(dst[8:], seq)
}

func decodePing(body []byte) (ts, seq uint64, err error) {
	if len(body) != pingBodyBytes {
		return 0, 0, fmt.Errorf("ping frame of %d bytes, want %d", len(body), pingBodyBytes)
	}
	return binary.LittleEndian.Uint64(body), binary.LittleEndian.Uint64(body[8:]), nil
}

func decodeResumeOK(body []byte) (recvSeq uint64, err error) {
	if len(body) != cumAckBodyBytes {
		return 0, fmt.Errorf("resume-ok frame of %d bytes, want %d", len(body), cumAckBodyBytes)
	}
	return binary.LittleEndian.Uint64(body), nil
}
