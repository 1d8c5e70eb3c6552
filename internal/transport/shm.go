package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Shared-memory transport: when both endpoints of an edge land on the same
// host, the framed Link mux can run over a pair of lock-free SPSC rings in
// a mmap'd file segment instead of a kernel socket — no syscalls on the
// data path, no copies beyond the ring, same wire format on top. The
// segment holds one ring per direction plus a 64-byte header and a block
// of cache-line-separated control words:
//
//	[ 0,  64)  header: magic, version, ring capacity, segment size
//	[ 64, 576) control: d->l head, d->l tail, l->d head, l->d tail,
//	           state (accepted / closed bits) — one 64B line each, so
//	           producer and consumer indices never share a cache line
//	[576, 576+cap)      dialer->listener ring data
//	[576+cap, 576+2cap) listener->dialer ring data
//
// Each ring is single-producer single-consumer: the producer owns the head
// index, the consumer owns the tail, both free-running uint64s accessed
// with acquire/release atomics; data copies are ordered by the index
// publication, so the rings need no locks. Rendezvous is a filesystem
// protocol (see Shm.Listen/Dial): the dialer creates and initializes the
// segment, renames it into the listener's directory (atomic on one
// filesystem), and polls the accepted bit; the acceptor maps the segment,
// flags it accepted, and unlinks the file, so a crashed pair leaks no
// namespace — both sides keep private mappings of the now-anonymous file.

const (
	shmMagic   = 0x53504952 // "SPIR"
	shmVersion = 1

	// ShmHeaderSize is the encoded size of the segment header.
	ShmHeaderSize = 64

	// Control-word offsets: one 64-byte cache line per word.
	shmOffHeadD2L = 64  // dialer->listener write index (dialer-owned)
	shmOffTailD2L = 128 // dialer->listener read index (listener-owned)
	shmOffHeadL2D = 192 // listener->dialer write index (listener-owned)
	shmOffTailL2D = 256 // listener->dialer read index (dialer-owned)
	shmOffState   = 320 // accepted / closed bits

	shmDataOff = 576 // first ring's data area

	shmMinRing = 4096
	shmMaxRing = 1 << 30

	// shmDialTimeout bounds how long a dialer waits for the listener to
	// pick up a renamed-in segment.
	shmDialTimeout = 3 * time.Second
)

// shmRingBytes is the per-direction ring capacity of a dialed segment, a
// power of two in [shmMinRing, shmMaxRing].
var shmRingBytes uint32 = 1 << 20

// Segment state bits.
const (
	shmStateAccepted       = 1 << 0
	shmStateDialerClosed   = 1 << 1
	shmStateListenerClosed = 1 << 2
)

// ShmHeader is the decoded segment header. The dialer writes it once at
// segment creation; the acceptor validates it before touching the rings.
type ShmHeader struct {
	Version uint16
	RingCap uint32 // per-direction ring capacity, a power of two
	SegSize uint64 // total file size: shmDataOff + 2*RingCap
}

// EncodeShmHeader lays the header out in the segment's first 64 bytes.
func EncodeShmHeader(h ShmHeader) []byte {
	b := make([]byte, ShmHeaderSize)
	binary.LittleEndian.PutUint32(b[0:], shmMagic)
	binary.LittleEndian.PutUint16(b[4:], h.Version)
	binary.LittleEndian.PutUint32(b[8:], h.RingCap)
	binary.LittleEndian.PutUint64(b[16:], h.SegSize)
	return b
}

// DecodeShmHeader validates and decodes a segment header. Every field is
// range-checked before any ring math uses it: a corrupt or truncated
// segment must fail here, not fault in the ring.
func DecodeShmHeader(b []byte) (ShmHeader, error) {
	var h ShmHeader
	if len(b) < ShmHeaderSize {
		return h, fmt.Errorf("shm header: %d bytes, need %d", len(b), ShmHeaderSize)
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != shmMagic {
		return h, fmt.Errorf("shm header: bad magic %#x", m)
	}
	h.Version = binary.LittleEndian.Uint16(b[4:])
	if h.Version != shmVersion {
		return h, fmt.Errorf("shm header: version %d, want %d", h.Version, shmVersion)
	}
	h.RingCap = binary.LittleEndian.Uint32(b[8:])
	if h.RingCap < shmMinRing || h.RingCap > shmMaxRing || h.RingCap&(h.RingCap-1) != 0 {
		return h, fmt.Errorf("shm header: ring capacity %d not a power of two in [%d, %d]",
			h.RingCap, shmMinRing, shmMaxRing)
	}
	h.SegSize = binary.LittleEndian.Uint64(b[16:])
	if h.SegSize != shmDataOff+2*uint64(h.RingCap) {
		return h, fmt.Errorf("shm header: segment size %d, want %d",
			h.SegSize, shmDataOff+2*uint64(h.RingCap))
	}
	for _, off := range []int{6, 7, 12, 13, 14, 15} {
		if b[off] != 0 {
			return h, fmt.Errorf("shm header: reserved byte %d is %#x", off, b[off])
		}
	}
	for i := 24; i < ShmHeaderSize; i++ {
		if b[i] != 0 {
			return h, fmt.Errorf("shm header: reserved byte %d is %#x", i, b[i])
		}
	}
	return h, nil
}

func shmU32(seg []byte, off int) *uint32 { return (*uint32)(unsafe.Pointer(&seg[off])) }
func shmU64(seg []byte, off int) *uint64 { return (*uint64)(unsafe.Pointer(&seg[off])) }

// shmWait is the consumer/producer backoff: spin briefly (the common case
// is a peer mid-copy), then sleep so an idle ring costs no CPU.
func shmWait(spins *int) {
	if *spins < 256 {
		*spins++
		runtime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}

// shmConn is one endpoint of a segment. Each endpoint owns its private
// mapping (two mappings of one file), so Close only unmaps its own view.
type shmConn struct {
	mu            sync.RWMutex // guards seg against munmap under in-flight I/O
	seg           []byte       // nil after Close
	closed        atomic.Bool
	rdl, wdl      atomic.Int64 // deadlines, unix nanos; 0 = none
	local, remote string
	ringCap       uint64
	txHead        *uint64 // our write index (we store)
	txTail        *uint64 // peer's read index on our ring (we load)
	rxHead        *uint64 // peer's write index (we load)
	rxTail        *uint64 // our read index (we store)
	state         *uint32
	tx, rx        []byte
	closedBit     uint32 // our bit in state
	peerBit       uint32 // peer's closed bit
}

func newShmConn(seg []byte, ringCap uint32, dialer bool, local, remote string) *shmConn {
	c := &shmConn{
		seg: seg, local: local, remote: remote,
		ringCap: uint64(ringCap),
		state:   shmU32(seg, shmOffState),
	}
	d2l := seg[shmDataOff : shmDataOff+int(ringCap)]
	l2d := seg[shmDataOff+int(ringCap) : shmDataOff+2*int(ringCap)]
	if dialer {
		c.txHead, c.txTail = shmU64(seg, shmOffHeadD2L), shmU64(seg, shmOffTailD2L)
		c.rxHead, c.rxTail = shmU64(seg, shmOffHeadL2D), shmU64(seg, shmOffTailL2D)
		c.tx, c.rx = d2l, l2d
		c.closedBit, c.peerBit = shmStateDialerClosed, shmStateListenerClosed
	} else {
		c.txHead, c.txTail = shmU64(seg, shmOffHeadL2D), shmU64(seg, shmOffTailL2D)
		c.rxHead, c.rxTail = shmU64(seg, shmOffHeadD2L), shmU64(seg, shmOffTailD2L)
		c.tx, c.rx = l2d, d2l
		c.closedBit, c.peerBit = shmStateListenerClosed, shmStateDialerClosed
	}
	return c
}

func (c *shmConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.seg == nil || c.closed.Load() {
		return 0, io.ErrClosedPipe
	}
	spins := 0
	for {
		head := atomic.LoadUint64(c.rxHead)
		tail := atomic.LoadUint64(c.rxTail)
		if avail := head - tail; avail > 0 {
			n := uint64(len(p))
			if n > avail {
				n = avail
			}
			i := tail & (c.ringCap - 1)
			w := copy(p[:n], c.rx[i:])
			if uint64(w) < n {
				copy(p[w:n], c.rx[:n-uint64(w)])
			}
			atomic.StoreUint64(c.rxTail, tail+n)
			return int(n), nil
		}
		if atomic.LoadUint32(c.state)&c.peerBit != 0 {
			// The peer closed; its last writes happened before the
			// closed-bit store, so one more head load drains them.
			if atomic.LoadUint64(c.rxHead) == tail {
				return 0, io.EOF
			}
			continue
		}
		if c.closed.Load() {
			return 0, io.ErrClosedPipe
		}
		if d := c.rdl.Load(); d != 0 && time.Now().UnixNano() >= d {
			return 0, os.ErrDeadlineExceeded
		}
		shmWait(&spins)
	}
}

func (c *shmConn) Write(p []byte) (int, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.seg == nil || c.closed.Load() {
		return 0, io.ErrClosedPipe
	}
	written := 0
	spins := 0
	for written < len(p) {
		if atomic.LoadUint32(c.state)&c.peerBit != 0 {
			return written, io.ErrClosedPipe
		}
		head := atomic.LoadUint64(c.txHead)
		tail := atomic.LoadUint64(c.txTail)
		if space := c.ringCap - (head - tail); space > 0 {
			n := uint64(len(p) - written)
			if n > space {
				n = space
			}
			i := head & (c.ringCap - 1)
			w := copy(c.tx[i:], p[written:written+int(n)])
			if uint64(w) < n {
				copy(c.tx, p[written+w:written+int(n)])
			}
			atomic.StoreUint64(c.txHead, head+n)
			written += int(n)
			spins = 0
			continue
		}
		if c.closed.Load() {
			return written, io.ErrClosedPipe
		}
		if d := c.wdl.Load(); d != 0 && time.Now().UnixNano() >= d {
			return written, os.ErrDeadlineExceeded
		}
		shmWait(&spins)
	}
	return written, nil
}

func (c *shmConn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	// Publish our closed bit so the peer's blocked reads drain to EOF and
	// its writes fail, then wait out in-flight I/O (each loop notices
	// closed within one backoff interval) and drop our mapping.
	c.mu.RLock()
	if c.seg != nil {
		for {
			st := atomic.LoadUint32(c.state)
			if atomic.CompareAndSwapUint32(c.state, st, st|c.closedBit) {
				break
			}
		}
	}
	c.mu.RUnlock()
	c.mu.Lock()
	seg := c.seg
	c.seg = nil
	c.mu.Unlock()
	if seg != nil {
		return syscall.Munmap(seg)
	}
	return nil
}

func shmNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func (c *shmConn) SetReadDeadline(t time.Time) error  { c.rdl.Store(shmNano(t)); return nil }
func (c *shmConn) SetWriteDeadline(t time.Time) error { c.wdl.Store(shmNano(t)); return nil }
func (c *shmConn) LocalAddr() string                  { return c.local }
func (c *shmConn) RemoteAddr() string                 { return c.remote }

// Shm is the same-host shared-memory transport. Addresses are arbitrary
// strings; each maps to a rendezvous directory under Base, so two
// processes sharing Base (and one filesystem) can connect.
type Shm struct {
	// Base is the rendezvous root; empty means os.TempDir().
	Base string

	seq atomic.Uint64
}

// NewShm returns a shared-memory transport rooted at base ("" =
// os.TempDir()).
func NewShm(base string) *Shm { return &Shm{Base: base} }

func (s *Shm) Name() string { return "shm" }

func (s *Shm) base() string {
	if s.Base != "" {
		return s.Base
	}
	return os.TempDir()
}

// shmSanitize maps an address to a filesystem-safe rendezvous name.
func shmSanitize(addr string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, addr)
}

func (s *Shm) dir(addr string) string {
	return filepath.Join(s.base(), "spi-shm-"+shmSanitize(addr))
}

// Listen binds addr by creating its rendezvous directory. Re-binding a
// live address is an error, matching TCP; Close removes the directory.
// The base directory is created on demand so a fresh -shm-dir just works.
func (s *Shm) Listen(addr string) (Listener, error) {
	dir := s.dir(addr)
	if err := os.MkdirAll(s.base(), 0o700); err != nil {
		return nil, &Error{Op: "listen", Addr: addr, Err: err}
	}
	if err := os.Mkdir(dir, 0o700); err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, &Error{Op: "listen", Addr: addr, Err: errors.New("address in use")}
		}
		return nil, &Error{Op: "listen", Addr: addr, Err: err}
	}
	return &shmListener{dir: dir, addr: addr, done: make(chan struct{})}, nil
}

// Dial creates a segment, publishes it into the listener's rendezvous
// directory, and waits for the accepted bit. No directory means no
// listener — a transient error, like ECONNREFUSED, so DialRetry backs off
// through startup races.
func (s *Shm) Dial(addr string) (Conn, error) {
	dir := s.dir(addr)
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil, &Error{Op: "dial", Addr: addr, Transient: true, Err: errLoopbackRefused}
	}
	ringCap := shmRingBytes
	segSize := shmDataOff + 2*int(ringCap)
	f, err := os.CreateTemp(s.base(), "spi-shm-seg-*")
	if err != nil {
		return nil, &Error{Op: "dial", Addr: addr, Err: err}
	}
	tmp := f.Name()
	fail := func(e error, transient bool) (Conn, error) {
		os.Remove(tmp)
		return nil, &Error{Op: "dial", Addr: addr, Transient: transient, Err: e}
	}
	if err := f.Truncate(int64(segSize)); err != nil {
		f.Close()
		return fail(err, false)
	}
	seg, err := syscall.Mmap(int(f.Fd()), 0, segSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	f.Close()
	if err != nil {
		return fail(err, false)
	}
	copy(seg, EncodeShmHeader(ShmHeader{
		Version: shmVersion, RingCap: ringCap, SegSize: uint64(segSize),
	}))
	dst := filepath.Join(dir, fmt.Sprintf("conn-%d-%d", os.Getpid(), s.seq.Add(1)))
	if err := os.Rename(tmp, dst); err != nil {
		syscall.Munmap(seg)
		// The listener closed between the Stat and the rename.
		return fail(errLoopbackRefused, true)
	}
	deadline := time.Now().Add(shmDialTimeout)
	state := shmU32(seg, shmOffState)
	for atomic.LoadUint32(state)&shmStateAccepted == 0 {
		if _, err := os.Stat(dir); err != nil {
			syscall.Munmap(seg)
			os.Remove(dst)
			return nil, &Error{Op: "dial", Addr: addr, Transient: true, Err: errLoopbackRefused}
		}
		if time.Now().After(deadline) {
			syscall.Munmap(seg)
			os.Remove(dst)
			return nil, &Error{Op: "dial", Addr: addr, Transient: true,
				Err: errors.New("shm accept timed out")}
		}
		time.Sleep(time.Millisecond)
	}
	return newShmConn(seg, ringCap, true, "shm:dialer", "shm:"+addr), nil
}

type shmListener struct {
	dir  string
	addr string
	done chan struct{}
	once sync.Once
}

func (ln *shmListener) Addr() string { return ln.addr }

func (ln *shmListener) Close() error {
	ln.once.Do(func() {
		close(ln.done)
		os.RemoveAll(ln.dir)
	})
	return nil
}

// Accept polls the rendezvous directory for renamed-in segments, maps the
// oldest, validates its header, flags it accepted, and unlinks it — from
// then on the file is anonymous, kept alive only by the two mappings.
func (ln *shmListener) Accept() (Conn, error) {
	closedErr := func() error {
		return &Error{Op: "accept", Addr: ln.addr, Err: errors.New("listener closed")}
	}
	for {
		select {
		case <-ln.done:
			return nil, closedErr()
		default:
		}
		ents, err := os.ReadDir(ln.dir)
		if err != nil {
			return nil, closedErr()
		}
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "conn-") {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		for _, name := range names {
			path := filepath.Join(ln.dir, name)
			c, err := ln.attach(path)
			if err != nil {
				os.Remove(path) // corrupt or truncated segment: reject it
				continue
			}
			return c, nil
		}
		select {
		case <-ln.done:
			return nil, closedErr()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (ln *shmListener) attach(path string) (Conn, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() < ShmHeaderSize {
		return nil, fmt.Errorf("segment is %d bytes", fi.Size())
	}
	seg, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	hdr, err := DecodeShmHeader(seg[:ShmHeaderSize])
	if err != nil || hdr.SegSize != uint64(fi.Size()) {
		syscall.Munmap(seg)
		if err == nil {
			err = fmt.Errorf("segment is %d bytes, header says %d", fi.Size(), hdr.SegSize)
		}
		return nil, err
	}
	os.Remove(path)
	state := shmU32(seg, shmOffState)
	for {
		st := atomic.LoadUint32(state)
		if atomic.CompareAndSwapUint32(state, st, st|shmStateAccepted) {
			break
		}
	}
	return newShmConn(seg, hdr.RingCap, false, "shm:"+ln.addr, "shm:dialer"), nil
}

// SameHost composes the shared-memory and a networked transport into the
// auto-selecting transport the CLIs expose as -transport shm: Listen binds
// the TCP address and a shm rendezvous derived from the resolved port,
// accepting from both; Dial takes the shm path when the target host is
// this machine and falls back to TCP otherwise (or when the peer is not
// listening on shm — e.g. it runs plain TCP).
type SameHost struct {
	// Shm is the same-host path; nil means NewShm("").
	Shm *Shm
}

func (s *SameHost) Name() string { return "shm" }

func (s *SameHost) shm() *Shm {
	if s.Shm != nil {
		return s.Shm
	}
	return NewShm("")
}

// sameHostName derives the shm rendezvous name both sides can compute:
// the listener from its resolved address, the dialer from the address it
// was given. Only the port is used — the two may render the host
// differently (":0" resolves to "[::]:p", peers dial "127.0.0.1:p").
func sameHostName(addr string) string {
	if _, port, err := net.SplitHostPort(addr); err == nil && port != "" {
		return "port-" + port
	}
	return shmSanitize(addr)
}

// shmHostIsLocal reports whether host names this machine.
func shmHostIsLocal(host string) bool {
	if host == "" || host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return false
	}
	if ip.IsLoopback() || ip.IsUnspecified() {
		return true
	}
	addrs, err := net.InterfaceAddrs()
	if err != nil {
		return false
	}
	for _, a := range addrs {
		if ipn, ok := a.(*net.IPNet); ok && ipn.IP.Equal(ip) {
			return true
		}
	}
	return false
}

func (s *SameHost) Listen(addr string) (Listener, error) {
	nln, err := (&TCP{}).Listen(addr)
	if err != nil {
		return nil, err
	}
	sln, err := s.shm().Listen(sameHostName(nln.Addr()))
	if err != nil {
		nln.Close()
		return nil, err
	}
	ln := &sameHostListener{
		net: nln, shm: sln,
		ch:   make(chan sameHostAccept),
		done: make(chan struct{}),
	}
	go ln.pump(nln)
	go ln.pump(sln)
	return ln, nil
}

func (s *SameHost) Dial(addr string) (Conn, error) {
	if host, _, err := net.SplitHostPort(addr); err == nil && shmHostIsLocal(host) {
		if c, err := s.shm().Dial(sameHostName(addr)); err == nil {
			return c, nil
		}
	}
	return (&TCP{}).Dial(addr)
}

type sameHostAccept struct {
	c   Conn
	err error
}

type sameHostListener struct {
	net, shm Listener
	ch       chan sameHostAccept
	done     chan struct{}
	once     sync.Once
}

func (ln *sameHostListener) pump(src Listener) {
	for {
		c, err := src.Accept()
		select {
		case ln.ch <- sameHostAccept{c, err}:
			if err != nil {
				return
			}
		case <-ln.done:
			if c != nil {
				c.Close()
			}
			return
		}
	}
}

func (ln *sameHostListener) Accept() (Conn, error) {
	for {
		select {
		case r := <-ln.ch:
			if r.err != nil {
				// One leg failing is terminal only once Close ran;
				// before that, surface it (TCP listener errors matter).
				return nil, r.err
			}
			return r.c, nil
		case <-ln.done:
			return nil, &Error{Op: "accept", Addr: ln.Addr(), Err: errors.New("listener closed")}
		}
	}
}

func (ln *sameHostListener) Close() error {
	ln.once.Do(func() {
		close(ln.done)
		ln.net.Close()
		ln.shm.Close()
	})
	return nil
}

// Addr reports the network address — the one peers dial; the shm
// rendezvous is derived from it on both sides.
func (ln *sameHostListener) Addr() string { return ln.net.Addr() }
