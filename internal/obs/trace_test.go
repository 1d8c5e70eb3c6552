package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTracerRecordsAndWraps(t *testing.T) {
	tr := NewTracer(4, TestClock(1))
	for i := 0; i < 6; i++ {
		tr.Instant("cat", "ev", 0, i)
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want 4 (ring capacity)", tr.Len())
	}
	evs := tr.Events()
	// Oldest-first: tids 2,3,4,5 survive.
	for i, ev := range evs {
		if ev.Tid != i+2 {
			t.Errorf("event %d has tid %d, want %d", i, ev.Tid, i+2)
		}
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS <= evs[i-1].TS {
			t.Errorf("timestamps not increasing: %d then %d", evs[i-1].TS, evs[i].TS)
		}
	}
}

func TestTestClockDeterministic(t *testing.T) {
	a, b := TestClock(42), TestClock(42)
	for i := 0; i < 100; i++ {
		if av, bv := a(), b(); av != bv {
			t.Fatalf("call %d: %d != %d (same seed must give same timestamps)", i, av, bv)
		}
	}
	c := TestClock(43)
	same := true
	for i := 0; i < 10; i++ {
		if a() != c() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical timestamp streams")
	}
}

func TestSpanDuration(t *testing.T) {
	tr := NewTracer(16, TestClock(7))
	start := tr.Now()
	tr.Span("kernel", "fire", 1, 2, start, A("iter", 3))
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	ev := evs[0]
	if ev.Ph != PhaseComplete || ev.TS != start || ev.Dur <= 0 {
		t.Errorf("span = %+v, want complete phase at %d with positive dur", ev, start)
	}
	if ev.Args[0] != (Arg{"iter", 3}) {
		t.Errorf("args = %+v", ev.Args)
	}
}

// chromeDoc mirrors the subset of the trace_event format we emit.
type chromeDoc struct {
	TraceEvents []struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		TS   int64            `json:"ts"`
		Dur  *int64           `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestChromeJSON(t *testing.T) {
	tr := NewTracer(16, TestClock(9))
	tr.Instant("edge", "send:sm", 0, 3, A("bytes", 6))
	tr.Span("kernel", "src", 0, 1000, tr.Now())
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2", len(doc.TraceEvents))
	}
	in := doc.TraceEvents[0]
	if in.Ph != "i" || in.Name != "send:sm" || in.Cat != "edge" || in.Tid != 3 ||
		in.Args["bytes"] != 6 || in.Dur != nil {
		t.Errorf("instant event = %+v", in)
	}
	sp := doc.TraceEvents[1]
	if sp.Ph != "X" || sp.Name != "src" || sp.Dur == nil || sp.Tid != 1000 {
		t.Errorf("span event = %+v", sp)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// Empty tracer renders an empty, still-valid document.
	b.Reset()
	if err := WriteChromeEvents(&b, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
}

// TestTracerConcurrent is the -race contract for the event ring.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(1024, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Instant("c", "e", 0, w)
				if i%100 == 0 {
					tr.Events()
					var b strings.Builder
					tr.WriteChrome(&b)
				}
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 1024 {
		t.Errorf("Len = %d, want full ring", tr.Len())
	}
}
