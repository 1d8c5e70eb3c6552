package platform

import (
	"fmt"
	"strings"
)

// Execution tracing: when enabled, the engine records one Segment per
// operation so runs can be inspected as a per-PE timeline (Gantt chart).

// SegmentKind classifies trace segments.
type SegmentKind uint8

const (
	// SegCompute is actor computation.
	SegCompute SegmentKind = iota
	// SegSend is sender-side message processing.
	SegSend
	// SegRecv is receiver-side message processing (including waiting for
	// arrival folded into the start time).
	SegRecv
)

func (k SegmentKind) String() string {
	switch k {
	case SegCompute:
		return "compute"
	case SegSend:
		return "send"
	case SegRecv:
		return "recv"
	default:
		return fmt.Sprintf("SegmentKind(%d)", uint8(k))
	}
}

// Segment is one traced operation.
type Segment struct {
	PE         int
	Kind       SegmentKind
	Start, End Time
	// Iter is the graph iteration the operation belongs to.
	Iter int
	// Ch is the channel for send/recv segments (-1 for compute).
	Ch ChannelID
}

// Trace accumulates segments of one run.
type Trace struct {
	Segments []Segment
}

// EnableTrace turns on segment recording for subsequent Run calls.
// Tracing costs memory proportional to ops x iterations; leave it off for
// large sweeps.
func (s *Sim) EnableTrace() { s.trace = true }

// LastTrace returns the trace of the most recent Run (nil when tracing is
// disabled).
func (s *Sim) LastTrace() *Trace { return s.lastTrace }

// Gantt renders a fixed-width textual Gantt chart: one row per PE, one
// column per time bucket; '#' compute, '>' send, '<' recv, '.' idle.
func (t *Trace) Gantt(numPEs int, width int) string {
	if width <= 0 {
		width = 80
	}
	var horizon Time
	for _, s := range t.Segments {
		if s.End > horizon {
			horizon = s.End
		}
	}
	if horizon == 0 {
		return "(empty trace)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "0%scycles %d\n", strings.Repeat(" ", width-8-len(fmt.Sprint(horizon))), horizon)
	for pe := 0; pe < numPEs; pe++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range t.Segments {
			if s.PE != pe {
				continue
			}
			lo := int(int64(s.Start) * int64(width) / int64(horizon))
			hi := int(int64(s.End) * int64(width) / int64(horizon))
			if hi >= width {
				hi = width - 1
			}
			mark := byte('#')
			switch s.Kind {
			case SegSend:
				mark = '>'
			case SegRecv:
				mark = '<'
			}
			for i := lo; i <= hi; i++ {
				row[i] = mark
			}
		}
		fmt.Fprintf(&b, "PE%-2d %s\n", pe, row)
	}
	return b.String()
}
