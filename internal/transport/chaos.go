package transport

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// FaultConfig is a seeded, deterministic fault schedule for a
// FaultTransport. The same config against the same workload injects the
// same faults, so chaos tests are reproducible by seed.
//
// Probabilistic faults (Drop, Duplicate, Corrupt) apply only to numbered
// frames — DATA, ACK, FIN, GOODBYE, CTRL — never to handshake or probe frames,
// so every injected fault is one the resume protocol is designed to
// repair: a drop surfaces as a sequence gap, a corruption as a CRC
// mismatch, a duplicate is discarded by the sequence filter. Delay and
// Sever apply to any frame.
type FaultConfig struct {
	// Seed drives the per-connection RNG. Connections draw from the
	// schedule in dial/accept order.
	Seed int64
	// Drop is the probability a numbered frame write is silently
	// swallowed (the peer sees a sequence gap on the next frame).
	Drop float64
	// Duplicate is the probability a numbered frame is written twice.
	Duplicate float64
	// Corrupt is the probability one byte of a numbered frame is flipped
	// before writing. The flip lands beyond the length prefix so the
	// frame CRC always catches it: a corrupted length prefix would
	// desynchronize the stream instead, which only an idle timeout (not
	// a checksum) can detect — a failure mode outside this schedule's
	// scope.
	Corrupt float64
	// Delay is the probability a write is stalled by DelayFor.
	Delay float64
	// DelayFor is the stall applied to delayed writes (default 2ms).
	DelayFor time.Duration
	// SeverAt lists frame ordinals (counted per connection, over the
	// frames this side writes through the wrapper, however many share a
	// Write) at which the connection is severed: the frames before it are
	// delivered, the write fails and the conn is closed. Deterministic
	// sever points, independent of the RNG.
	SeverAt []int
	// Sever is the probability any frame write severs the connection.
	Sever float64
	// StallAt, when > 0, black-holes the connection from that frame
	// ordinal on: every frame (this one and all later, heartbeats
	// included) reports success but nothing reaches the peer, and the
	// connection stays open. A sever is detectable — the next I/O errors —
	// but a stall is pure silence, the half-open failure mode that only a
	// heartbeat timeout can distinguish from an idle peer. Deterministic,
	// independent of the RNG; counts one fault when it triggers.
	StallAt int
	// SkipFrames exempts the first N frames on each connection from all
	// faults, keeping handshakes intact so schedules exercise
	// mid-session recovery rather than connect failures.
	SkipFrames int
	// MaxFaults caps the total number of injected faults across the
	// whole transport (0 = unlimited). A capped schedule guarantees the
	// workload eventually runs fault-free and completes.
	MaxFaults int
	// DenyDialsAfter, when > 0, makes every dial fail once that many
	// dials have succeeded — simulating a peer that dies and never comes
	// back, which drives reconnect exhaustion and graceful degradation.
	DenyDialsAfter int
}

// FaultStats counts the faults a FaultTransport actually injected.
type FaultStats struct {
	Drops, Duplicates, Corruptions, Delays, Severs, Stalls, DeniedDials int64
}

// FaultTransport wraps another Transport and injects the configured
// faults into every connection it creates (both dialed and accepted).
type FaultTransport struct {
	inner Transport
	cfg   FaultConfig

	mu      sync.Mutex
	nextRNG int64 // per-connection RNG seeds derive from Seed + counter
	dials   int64
	faults  int64 // total injected, compared against MaxFaults

	drops, dups, corrupts, delays, severs, stalls, denied int64

	obs faultObs
}

// faultObs carries the optional observability handles for a
// FaultTransport; the zero value disables everything.
type faultObs struct {
	tr       *obs.Tracer
	pid      int
	counters map[string]*obs.Counter
}

// SetObserver attaches metrics and tracing to the transport. Each
// injected fault increments chaos_faults_total{kind} and emits a "fault"
// trace instant. Call before the transport carries traffic.
func (t *FaultTransport) SetObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	fo := faultObs{tr: o.Tracer(), pid: o.Pid(), counters: map[string]*obs.Counter{}}
	for _, kind := range []string{"drop", "duplicate", "corrupt", "delay", "sever", "stall", "denydial"} {
		fo.counters[kind] = o.Counter("chaos_faults_total",
			"Faults injected by the chaos transport, by kind.", obs.L("kind", kind))
	}
	t.mu.Lock()
	t.obs = fo
	t.mu.Unlock()
}

// fault records one injected fault of the given kind.
func (t *FaultTransport) fault(kind string) {
	t.mu.Lock()
	fo := t.obs
	t.mu.Unlock()
	if fo.counters == nil {
		return
	}
	fo.counters[kind].Inc()
	fo.tr.Instant("fault", kind, fo.pid, 0)
}

// NewFaultTransport wraps inner with the given fault schedule.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	if cfg.DelayFor <= 0 {
		cfg.DelayFor = 2 * time.Millisecond
	}
	return &FaultTransport{inner: inner, cfg: cfg}
}

// Name identifies the wrapper in flags and logs.
func (t *FaultTransport) Name() string { return t.inner.Name() + "+chaos" }

// Stats returns a snapshot of the injected-fault counters.
func (t *FaultTransport) Stats() FaultStats {
	return FaultStats{
		Drops:       atomic.LoadInt64(&t.drops),
		Duplicates:  atomic.LoadInt64(&t.dups),
		Corruptions: atomic.LoadInt64(&t.corrupts),
		Delays:      atomic.LoadInt64(&t.delays),
		Severs:      atomic.LoadInt64(&t.severs),
		Stalls:      atomic.LoadInt64(&t.stalls),
		DeniedDials: atomic.LoadInt64(&t.denied),
	}
}

// spendFault consumes one unit of the MaxFaults budget; it returns false
// when the budget is exhausted and the fault must not be injected.
func (t *FaultTransport) spendFault() bool {
	if t.cfg.MaxFaults <= 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.faults >= int64(t.cfg.MaxFaults) {
		return false
	}
	t.faults++
	return true
}

func (t *FaultTransport) newConn(c Conn) Conn {
	t.mu.Lock()
	seed := t.cfg.Seed + t.nextRNG
	t.nextRNG++
	t.mu.Unlock()
	return &faultConn{Conn: c, t: t, rng: rand.New(rand.NewSource(seed))}
}

// Dial connects through the inner transport, unless the schedule has
// declared the peer permanently dead.
func (t *FaultTransport) Dial(addr string) (Conn, error) {
	if t.cfg.DenyDialsAfter > 0 {
		t.mu.Lock()
		deny := t.dials >= int64(t.cfg.DenyDialsAfter)
		if !deny {
			t.dials++
		}
		t.mu.Unlock()
		if deny {
			atomic.AddInt64(&t.denied, 1)
			t.fault("denydial")
			return nil, &Error{Op: "dial", Addr: addr, Transient: true,
				Err: fmt.Errorf("chaos: dial denied (peer declared dead)")}
		}
	}
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return t.newConn(c), nil
}

// Listen wraps the inner listener so accepted connections inject faults
// too.
func (t *FaultTransport) Listen(addr string) (Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &faultListener{Listener: ln, t: t}, nil
}

type faultListener struct {
	Listener
	t *FaultTransport
}

func (ln *faultListener) Accept() (Conn, error) {
	c, err := ln.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return ln.t.newConn(c), nil
}

// faultConn injects the schedule into Write calls, frame by frame: a link
// coalesces as many frames into one Write as its load produced, so the
// wrapper walks the length-prefixed frames in p and gives each its own
// ordinal and its own draw. A seeded schedule therefore hits the same
// frames whatever the coalescing.
type faultConn struct {
	Conn
	t *FaultTransport

	mu      sync.Mutex
	rng     *rand.Rand
	frames  int // ordinal of the next frame (PING/PONG excluded)
	dead    bool
	stalled bool // StallAt triggered: writes succeed but go nowhere
}

// errSevered is what writes on a chaos-severed connection report.
var errSevered = fmt.Errorf("chaos: connection severed")

// frameEnd returns the end of the frame that starts at p[off]. Bytes that
// do not parse as a whole frame (nothing the link layer writes) count as
// one frame to the end of p.
func frameEnd(p []byte, off int) int {
	if len(p)-off < 4 {
		return len(p)
	}
	n := int(binary.LittleEndian.Uint32(p[off:]))
	if n < 13 || n > len(p)-off-4 {
		return len(p)
	}
	return off + 4 + n
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, &Error{Op: "send", Addr: c.RemoteAddr(), Err: errSevered}
	}
	if c.stalled {
		return len(p), nil // black hole: success reported, nothing sent
	}
	cfg := &c.t.cfg
	// p[sent:off] is the run of frames that pass untouched; it reaches the
	// inner connection in one Write when a fault (or the end of p)
	// interrupts it, so a sever at frame k delivers the frames before k.
	sent := 0
	flush := func(end int) error {
		if end == sent {
			return nil
		}
		_, err := c.Conn.Write(p[sent:end])
		sent = end
		return err
	}
	for off := 0; off < len(p); {
		end := frameEnd(p, off)
		frame := p[off:end]
		off = end
		// Heartbeat probes bypass the frame count and the RNG so a link
		// with probing on draws the exact same fault schedule as one
		// without: heartbeats observe chaos, they must not perturb it. A
		// stalled or dead connection still swallows them — that is the
		// failure they exist to detect.
		if len(frame) > 4 && (frame[4] == framePing || frame[4] == framePong) {
			continue
		}
		ord := c.frames
		c.frames++
		if ord < cfg.SkipFrames {
			continue
		}
		start := end - len(frame)
		if cfg.StallAt > 0 && ord >= cfg.StallAt && c.t.spendFault() {
			err := flush(start)
			c.stalled = true
			atomic.AddInt64(&c.t.stalls, 1)
			c.t.fault("stall")
			return len(p), err
		}
		severed := false
		for _, at := range cfg.SeverAt {
			severed = severed || (at == ord && c.t.spendFault())
		}
		numbered := len(frame) > 4 && numberedFrame(frame[4])
		roll := c.rng.Float64()
		var err error
		switch {
		case severed, cfg.Sever > 0 && roll < cfg.Sever && c.t.spendFault():
			if err = flush(start); err == nil {
				return c.sever(start)
			}
		case numbered && cfg.Drop > 0 && roll < cfg.Drop && c.t.spendFault():
			atomic.AddInt64(&c.t.drops, 1)
			c.t.fault("drop")
			err = flush(start)
			sent = end // swallowed; peer sees a sequence gap at the next numbered frame or probe
		case numbered && cfg.Corrupt > 0 && roll < cfg.Corrupt && c.t.spendFault():
			atomic.AddInt64(&c.t.corrupts, 1)
			c.t.fault("corrupt")
			bad := append([]byte(nil), frame...)
			bad[4+c.rng.Intn(len(bad)-4)] ^= 0x20
			if err = flush(start); err == nil {
				_, err = c.Conn.Write(bad)
			}
			sent = end
		case numbered && cfg.Duplicate > 0 && roll < cfg.Duplicate && c.t.spendFault():
			atomic.AddInt64(&c.t.dups, 1)
			c.t.fault("duplicate")
			if err = flush(end); err == nil {
				_, err = c.Conn.Write(frame)
			}
		case cfg.Delay > 0 && roll < cfg.Delay && c.t.spendFault():
			atomic.AddInt64(&c.t.delays, 1)
			c.t.fault("delay")
			err = flush(start)
			time.Sleep(cfg.DelayFor)
		}
		if err != nil {
			return sent, err
		}
	}
	return len(p), flush(len(p))
}

// sever kills the connection after n bytes of the current Write went out.
func (c *faultConn) sever(n int) (int, error) {
	atomic.AddInt64(&c.t.severs, 1)
	c.t.fault("sever")
	c.dead = true
	c.Conn.Close()
	return n, &Error{Op: "send", Addr: c.RemoteAddr(), Err: errSevered}
}

// ParseFaultSpec parses a "key=value,key=value" chaos specification, as
// accepted by spinode's -chaos flag. Keys: seed, drop, dup, corrupt,
// delay, delayms, sever, severat (semicolon-separated ordinals), stallat,
// skip, maxfaults, denydials.
func ParseFaultSpec(spec string) (FaultConfig, error) {
	var cfg FaultConfig
	if strings.TrimSpace(spec) == "" {
		return cfg, fmt.Errorf("empty chaos spec")
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos spec entry %q is not key=value", kv)
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			cfg.Drop, err = strconv.ParseFloat(val, 64)
		case "dup":
			cfg.Duplicate, err = strconv.ParseFloat(val, 64)
		case "corrupt":
			cfg.Corrupt, err = strconv.ParseFloat(val, 64)
		case "delay":
			cfg.Delay, err = strconv.ParseFloat(val, 64)
		case "delayms":
			var ms int
			ms, err = strconv.Atoi(val)
			cfg.DelayFor = time.Duration(ms) * time.Millisecond
		case "sever":
			cfg.Sever, err = strconv.ParseFloat(val, 64)
		case "severat":
			for _, s := range strings.Split(val, ";") {
				var at int
				if at, err = strconv.Atoi(s); err != nil {
					break
				}
				cfg.SeverAt = append(cfg.SeverAt, at)
			}
		case "stallat":
			cfg.StallAt, err = strconv.Atoi(val)
		case "skip":
			cfg.SkipFrames, err = strconv.Atoi(val)
		case "maxfaults":
			cfg.MaxFaults, err = strconv.Atoi(val)
		case "denydials":
			cfg.DenyDialsAfter, err = strconv.Atoi(val)
		default:
			return cfg, fmt.Errorf("unknown chaos spec key %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("chaos spec %s=%s: %v", key, val, err)
		}
	}
	return cfg, nil
}
