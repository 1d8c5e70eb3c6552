package platform

import (
	"fmt"
)

// Sim is a configured platform ready to run. Build one with NewSim, add
// channels and programs, then call Run.
type Sim struct {
	cfg      Config
	channels []ChannelSpec
	programs []Program

	trace     bool
	lastTrace *Trace
}

// NewSim returns a platform with the given configuration and no channels
// or programs.
func NewSim(cfg Config) (*Sim, error) {
	if cfg.NumPEs <= 0 {
		return nil, fmt.Errorf("platform: NumPEs = %d", cfg.NumPEs)
	}
	if cfg.CyclesPerByteDen <= 0 || cfg.CyclesPerByteNum < 0 {
		return nil, fmt.Errorf("platform: bad serialization cost %d/%d", cfg.CyclesPerByteNum, cfg.CyclesPerByteDen)
	}
	return &Sim{cfg: cfg, programs: make([]Program, cfg.NumPEs)}, nil
}

// Config returns the platform configuration.
func (s *Sim) Config() Config { return s.cfg }

// Channel returns the spec of a channel. It panics on an unknown ID (a
// caller bug: IDs only come from AddChannel).
func (s *Sim) Channel(id ChannelID) ChannelSpec { return s.channels[id] }

// AddChannel registers a channel and returns its ID.
func (s *Sim) AddChannel(spec ChannelSpec) (ChannelID, error) {
	if spec.From < 0 || spec.From >= s.cfg.NumPEs || spec.To < 0 || spec.To >= s.cfg.NumPEs {
		return 0, fmt.Errorf("platform: channel %q endpoints out of range", spec.Name)
	}
	if spec.From == spec.To {
		return 0, fmt.Errorf("platform: channel %q is a self-loop", spec.Name)
	}
	if spec.Capacity < 0 || spec.HeaderBytes < 0 || spec.AckBytes < 0 || spec.Preload < 0 {
		return 0, fmt.Errorf("platform: channel %q has negative parameter", spec.Name)
	}
	if spec.Capacity > 0 && spec.Preload > spec.Capacity {
		return 0, fmt.Errorf("platform: channel %q preload %d exceeds capacity %d", spec.Name, spec.Preload, spec.Capacity)
	}
	id := ChannelID(len(s.channels))
	s.channels = append(s.channels, spec)
	return id, nil
}

// SetProgram installs the per-iteration program of a PE. A nil program
// means the PE idles.
func (s *Sim) SetProgram(pe int, prog Program) error {
	if pe < 0 || pe >= s.cfg.NumPEs {
		return fmt.Errorf("platform: PE %d out of range", pe)
	}
	for i, op := range prog {
		switch op.Kind {
		case OpCompute:
			if op.Cycles < 0 {
				return fmt.Errorf("platform: PE %d op %d: negative cycles", pe, i)
			}
		case OpSend:
			if int(op.Ch) >= len(s.channels) {
				return fmt.Errorf("platform: PE %d op %d: unknown channel", pe, i)
			}
			if s.channels[op.Ch].From != pe {
				return fmt.Errorf("platform: PE %d op %d: sends on channel %q owned by PE %d",
					pe, i, s.channels[op.Ch].Name, s.channels[op.Ch].From)
			}
		case OpRecv:
			if int(op.Ch) >= len(s.channels) {
				return fmt.Errorf("platform: PE %d op %d: unknown channel", pe, i)
			}
			if s.channels[op.Ch].To != pe {
				return fmt.Errorf("platform: PE %d op %d: receives on channel %q destined to PE %d",
					pe, i, s.channels[op.Ch].Name, s.channels[op.Ch].To)
			}
		default:
			return fmt.Errorf("platform: PE %d op %d: unknown op kind %d", pe, i, op.Kind)
		}
	}
	s.programs[pe] = prog
	return nil
}

type message struct {
	arriveAt Time
	bytes    int // payload only
	kind     MsgKind
}

type blockReason uint8

const (
	notBlocked blockReason = iota
	blockedRecv
	blockedCredit
	peDone
)

type peState struct {
	pc      int
	iter    int
	time    Time
	blocked blockReason
	blockCh ChannelID
}

type chanState struct {
	queue     []message // sent, not yet consumed (FIFO)
	maxQueued int
	// sent counts messages ever sent; consumeTimes[i] is the time message
	// i was consumed (credit i returned). For a capacity-C channel the
	// sender of message k must wait for consumeTimes[k-C].
	sent          int
	consumeTimes  []Time
	senderBlocked bool
}

// serCycles returns the serialization cost of n bytes.
func (s *Sim) serCycles(n int) int64 {
	if n <= 0 {
		return 0
	}
	return (int64(n)*s.cfg.CyclesPerByteNum + s.cfg.CyclesPerByteDen - 1) / s.cfg.CyclesPerByteDen
}

// Run executes the platform for the given number of iterations of every
// PE's program and returns the run statistics. Run detects deadlock (all
// unfinished PEs blocked) and reports it as an error.
//
// Execution uses run-to-block scheduling. Because every channel has a
// single producer and single consumer and programs do not branch on time,
// the system is a Kahn process network: the result is independent of the
// interleaving, so run-to-block is both simple and exact.
func (s *Sim) Run(iterations int) (*Stats, error) {
	if iterations <= 0 {
		return nil, fmt.Errorf("platform: iterations = %d", iterations)
	}
	n := s.cfg.NumPEs
	if s.trace {
		s.lastTrace = &Trace{}
	}
	pes := make([]peState, n)
	chs := make([]chanState, len(s.channels))
	stats := &Stats{
		PEBusy:          make([]Time, n),
		MaxQueued:       make([]int, len(s.channels)),
		IterationFinish: make([]Time, iterations),
	}
	for pe := range pes {
		if len(s.programs[pe]) == 0 {
			pes[pe].blocked = peDone
		}
	}
	for i := range s.channels {
		for p := 0; p < s.channels[i].Preload; p++ {
			chs[i].queue = append(chs[i].queue, message{arriveAt: 0, kind: DataMsg})
			chs[i].sent++
		}
		chs[i].maxQueued = len(chs[i].queue)
	}

	runnable := make([]int, 0, n)
	inQueue := make([]bool, n)
	enqueue := func(pe int) {
		if !inQueue[pe] && pes[pe].blocked != peDone {
			inQueue[pe] = true
			runnable = append(runnable, pe)
		}
	}
	for pe := 0; pe < n; pe++ {
		enqueue(pe)
	}

	// advance one PE until it blocks or finishes.
	step := func(pe int) error {
		st := &pes[pe]
		prog := s.programs[pe]
		for {
			if st.pc == len(prog) {
				// iteration boundary
				if st.time > stats.IterationFinish[st.iter] {
					stats.IterationFinish[st.iter] = st.time
				}
				st.iter++
				st.pc = 0
				if st.iter == iterations {
					st.blocked = peDone
					return nil
				}
			}
			op := &prog[st.pc]
			switch op.Kind {
			case OpCompute:
				c := op.Cycles
				if c < 0 {
					return fmt.Errorf("platform: PE %d computed negative cycles %d", pe, c)
				}
				start := st.time
				st.time += Time(c)
				stats.PEBusy[pe] += Time(c)
				if s.trace {
					s.lastTrace.Segments = append(s.lastTrace.Segments, Segment{
						PE: pe, Kind: SegCompute, Start: start, End: st.time, Iter: st.iter, Ch: -1,
					})
				}
				st.pc++
			case OpSend:
				spec := &s.channels[op.Ch]
				cs := &chs[op.Ch]
				if spec.Capacity > 0 && cs.sent >= spec.Capacity {
					// BBS back-pressure: message k needs credit k-C.
					need := cs.sent - spec.Capacity
					if need >= len(cs.consumeTimes) {
						st.blocked = blockedCredit
						st.blockCh = op.Ch
						cs.senderBlocked = true
						return nil
					}
					if t := cs.consumeTimes[need]; t > st.time {
						st.time = t
					}
				}
				bytes := op.Bytes
				if op.BytesFn != nil {
					bytes = op.BytesFn(st.iter)
				}
				if bytes < 0 {
					return fmt.Errorf("platform: PE %d sent negative bytes %d", pe, bytes)
				}
				cost := s.cfg.SendOverheadCycles + s.serCycles(bytes+spec.HeaderBytes)
				sendStart := st.time
				st.time += Time(cost)
				stats.PEBusy[pe] += Time(cost)
				if s.trace {
					s.lastTrace.Segments = append(s.lastTrace.Segments, Segment{
						PE: pe, Kind: SegSend, Start: sendStart, End: st.time, Iter: st.iter, Ch: op.Ch,
					})
				}
				arrive := st.time + Time(s.cfg.LinkLatencyCycles)
				kind := op.MsgKind
				cs.queue = append(cs.queue, message{arriveAt: arrive, bytes: bytes, kind: kind})
				cs.sent++
				if len(cs.queue) > cs.maxQueued {
					cs.maxQueued = len(cs.queue)
				}
				stats.Messages[kind]++
				stats.Bytes[kind] += int64(bytes + spec.HeaderBytes)
				st.pc++
				// Wake a receiver blocked on this channel.
				rcv := spec.To
				if pes[rcv].blocked == blockedRecv && pes[rcv].blockCh == op.Ch {
					pes[rcv].blocked = notBlocked
					if arrive > pes[rcv].time {
						pes[rcv].time = arrive
					}
					enqueue(rcv)
				}
			case OpRecv:
				spec := &s.channels[op.Ch]
				cs := &chs[op.Ch]
				if len(cs.queue) == 0 {
					st.blocked = blockedRecv
					st.blockCh = op.Ch
					return nil
				}
				msg := cs.queue[0]
				cs.queue = cs.queue[1:]
				if msg.arriveAt > st.time {
					st.time = msg.arriveAt
				}
				recvStart := st.time
				st.time += Time(s.cfg.RecvOverheadCycles)
				stats.PEBusy[pe] += Time(s.cfg.RecvOverheadCycles)
				// UBS acknowledgement: receiver spends send time; traffic
				// is accounted but the sender does not block on it.
				if spec.AckBytes > 0 {
					ackCost := s.cfg.SendOverheadCycles + s.serCycles(spec.AckBytes+spec.HeaderBytes)
					st.time += Time(ackCost)
					stats.PEBusy[pe] += Time(ackCost)
					stats.Messages[AckMsg]++
					stats.Bytes[AckMsg] += int64(spec.AckBytes + spec.HeaderBytes)
				}
				if s.trace {
					s.lastTrace.Segments = append(s.lastTrace.Segments, Segment{
						PE: pe, Kind: SegRecv, Start: recvStart, End: st.time, Iter: st.iter, Ch: op.Ch,
					})
				}
				st.pc++
				// Record the credit return and wake a blocked sender; the
				// sender re-checks credit availability with exact
				// timestamps when it resumes.
				cs.consumeTimes = append(cs.consumeTimes, st.time)
				if cs.senderBlocked {
					cs.senderBlocked = false
					snd := spec.From
					if pes[snd].blocked == blockedCredit && pes[snd].blockCh == op.Ch {
						pes[snd].blocked = notBlocked
						enqueue(snd)
					}
				}
			}
		}
	}

	for len(runnable) > 0 {
		pe := runnable[0]
		runnable = runnable[1:]
		inQueue[pe] = false
		if pes[pe].blocked == notBlocked {
			if err := step(pe); err != nil {
				return nil, err
			}
		}
	}
	// All queues drained: every PE must be done, else deadlock.
	for pe := range pes {
		if pes[pe].blocked != peDone {
			return nil, fmt.Errorf("platform: deadlock — PE %d blocked (%d) on channel %d at iteration %d",
				pe, pes[pe].blocked, pes[pe].blockCh, pes[pe].iter)
		}
	}
	for pe := range pes {
		if pes[pe].time > stats.Finish {
			stats.Finish = pes[pe].time
		}
	}
	// Iteration finishes are monotone: a PE's later block can complete an
	// earlier iteration number after another PE's later one; normalize.
	for k := 1; k < iterations; k++ {
		if stats.IterationFinish[k] < stats.IterationFinish[k-1] {
			stats.IterationFinish[k] = stats.IterationFinish[k-1]
		}
	}
	for i := range chs {
		stats.MaxQueued[i] = chs[i].maxQueued
	}
	return stats, nil
}
