package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer records the benchmark's own spans: one around each call into a
// layer's exported functions, taken from the benchmark's files (spans
// inside the program are a later change). Spans stay in memory and are
// written once, at the end of the run, as a Chrome trace
// (chrome://tracing, ui.perfetto.dev). A nil tracer records nothing, so
// the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	id, parent int
	start, end time.Duration // since t0
	args       map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span caused by parent (0 = the run) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id; kv is name, value, name, value, ...
func (t *tracer) end(id int, kv ...any) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = now
	for i := 0; i+1 < len(kv); i += 2 {
		if s.args == nil {
			s.args = map[string]float64{}
		}
		s.args[kv[i].(string)] = kv[i+1].(float64)
	}
}

// write emits the spans as Chrome trace "complete" events. Nested spans
// share a track per top-level ancestor so the viewer stacks them.
func (t *tracer) write(path string) error {
	type event struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		Ts   float64            `json:"ts"`  // microseconds
		Dur  float64            `json:"dur"` // microseconds
		Pid  int                `json:"pid"`
		Tid  int                `json:"tid"`
		Args map[string]float64 `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end == 0 {
			continue // never closed: the call failed and was reported
		}
		args := map[string]float64{"id": float64(s.id), "parent": float64(s.parent)}
		for k, v := range s.args {
			args[k] = v
		}
		tid := s.id
		for p := s.parent; p != 0; p = t.spans[p-1].parent {
			tid = p
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: tid, Args: args,
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// at records a finished span from its two timestamps.
func (t *tracer) at(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return len(t.spans)
}
