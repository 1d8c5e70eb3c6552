package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Structured event tracing: every sync/ack/data message, credit stall,
// retry, resume, and fault injection becomes one Event in a bounded ring.
// Events render as Chrome trace_event JSON ("ph":"i" instants for message
// events, "ph":"X" complete spans for timed work), so a distributed run
// loads in chrome://tracing / Perfetto alongside the platform simulator's
// Gantt output.

// Arg is one numeric event annotation (Chrome args entry). A zero Key
// marks the slot unused.
type Arg struct {
	Key string
	Val int64
}

// A is shorthand for constructing an Arg.
func A(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// Event phases, matching the Chrome trace_event format.
const (
	PhaseInstant  = 'i' // a point event (one message on the wire)
	PhaseComplete = 'X' // a span with a duration (a kernel firing, a stall)
)

// Event is one trace record. Pid groups rows per node in the Chrome
// viewer; Tid separates edges/links/processors within a node.
type Event struct {
	TS   int64 // µs since tracer start
	Dur  int64 // µs; only meaningful for PhaseComplete
	Ph   byte
	Cat  string
	Name string
	Pid  int
	Tid  int
	Args [2]Arg
}

// Clock reports microseconds since some fixed origin. It must be safe for
// concurrent use.
type Clock func() int64

// WallClock is the production clock: monotonic microseconds since the
// call to WallClock.
func WallClock() Clock {
	start := time.Now()
	return func() int64 { return time.Since(start).Microseconds() }
}

// TestClock is a seeded deterministic clock: each call advances time by a
// pseudo-random 1–16 µs step derived from seed, so traces recorded under
// it have reproducible timestamps given a reproducible event order.
func TestClock(seed uint64) Clock {
	if seed == 0 {
		seed = 1
	}
	var mu sync.Mutex
	state, now := seed, int64(0)
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		now += 1 + int64(state%16)
		return now
	}
}

// Tracer records events into a fixed-capacity ring, overwriting the
// oldest once full (Dropped counts the overwritten). All methods are
// safe for concurrent use and no-ops on a nil receiver, so instrumented
// code calls them unconditionally.
type Tracer struct {
	clock Clock

	mu   sync.Mutex
	ring []Event
	next int
	full bool
}

// DefaultTraceEvents is the default ring capacity.
const DefaultTraceEvents = 65536

// NewTracer returns a tracer with the given ring capacity (<= 0 means
// DefaultTraceEvents) and clock (nil means WallClock).
func NewTracer(capacity int, clock Clock) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	if clock == nil {
		clock = WallClock()
	}
	return &Tracer{clock: clock, ring: make([]Event, 0, capacity)}
}

// Now reads the tracer's clock (0 on nil), for span start timestamps.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Instant records a point event stamped now.
func (t *Tracer) Instant(cat, name string, pid, tid int, args ...Arg) {
	if t == nil {
		return
	}
	ev := Event{TS: t.clock(), Ph: PhaseInstant, Cat: cat, Name: name, Pid: pid, Tid: tid}
	copyArgs(&ev, args)
	t.emit(ev)
}

// InstantAt records a point event with a caller-supplied timestamp (a
// Now() value), so adjacent events can share one clock read — the clock
// is the most expensive part of recording an instant.
func (t *Tracer) InstantAt(ts int64, cat, name string, pid, tid int, args ...Arg) {
	if t == nil {
		return
	}
	ev := Event{TS: ts, Ph: PhaseInstant, Cat: cat, Name: name, Pid: pid, Tid: tid}
	copyArgs(&ev, args)
	t.emit(ev)
}

// Span records a complete event from start (a Now() value) to now.
func (t *Tracer) Span(cat, name string, pid, tid int, start int64, args ...Arg) {
	if t == nil {
		return
	}
	now := t.clock()
	dur := now - start
	if dur < 0 {
		dur = 0
	}
	ev := Event{TS: start, Dur: dur, Ph: PhaseComplete, Cat: cat, Name: name, Pid: pid, Tid: tid}
	copyArgs(&ev, args)
	t.emit(ev)
}

func copyArgs(ev *Event, args []Arg) {
	for i := 0; i < len(args) && i < len(ev.Args); i++ {
		ev.Args[i] = args[i]
	}
}

func (t *Tracer) emit(ev Event) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.next] = ev
		t.full = true
	}
	t.next++
	if t.next == cap(t.ring) {
		t.next = 0
	}
	t.mu.Unlock()
}

// Events returns the retained events oldest-first (nil on a nil tracer).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Event(nil), t.ring...)
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Len reports how many events are retained; Dropped how many were
// overwritten by ring wraparound.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// WriteChrome renders the retained events as Chrome trace_event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	return WriteChromeEvents(w, t.Events())
}

// WriteChromeEvents renders events (e.g. several nodes' tracers merged)
// as a Chrome trace_event JSON object: {"traceEvents": [...]}. The
// format is accepted by chrome://tracing and Perfetto.
func WriteChromeEvents(w io.Writer, events []Event) error {
	var b strings.Builder
	b.WriteString("{\"traceEvents\":[")
	for i, ev := range events {
		if i > 0 {
			b.WriteByte(',')
		}
		writeChromeEvent(&b, ev)
	}
	b.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeChromeEvent(b *strings.Builder, ev Event) {
	fmt.Fprintf(b, "{\"name\":%s,\"cat\":%s,\"ph\":\"%c\",\"ts\":%d",
		strconv.Quote(ev.Name), strconv.Quote(ev.Cat), ev.Ph, ev.TS)
	if ev.Ph == PhaseComplete {
		fmt.Fprintf(b, ",\"dur\":%d", ev.Dur)
	}
	fmt.Fprintf(b, ",\"pid\":%d,\"tid\":%d", ev.Pid, ev.Tid)
	if ev.Args[0].Key != "" {
		b.WriteString(",\"args\":{")
		for i, a := range ev.Args {
			if a.Key == "" {
				break
			}
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s:%d", strconv.Quote(a.Key), a.Val)
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
}
