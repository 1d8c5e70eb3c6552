package session

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/transport"
)

// ServerConfig describes the graph a serving node runs per session and
// the admission policy it runs it under.
type ServerConfig struct {
	// Graph, Mapping, NodeOf, Iterations and Block describe the per-
	// session execution exactly as they would a standalone
	// spi.ExecuteDistributed run.
	Graph      *dataflow.Graph
	Mapping    *sched.Mapping
	NodeOf     []int
	Iterations int
	Block      int
	// Node is this server's node index.
	Node int
	// Kernels instantiates a fresh kernel set for each session: sessions
	// must not share mutable kernel state.
	Kernels func(sid uint32, tenant string) map[dataflow.ActorID]spi.Kernel
	// Admission bounds concurrent sessions; the zero value admits all.
	Admission Admission
	// SessionTimeout, when positive, arms the session reaper: a session
	// whose client has sent nothing (no data, acks, or fins) for this
	// long is shed exactly like a degraded session — its slot, quota,
	// and byte budget are released and the client (if it ever returns)
	// sees CloseShed. Without it an abandoned client parks its session's
	// server half forever. 0 disables reaping.
	SessionTimeout time.Duration
	// Obs, when non-nil, exports per-tenant session metrics and threads
	// through to each session's execution.
	Obs *obs.Observer
}

// Snapshot is a point-in-time view of the server's admission book, in
// the shape /healthz reports.
type Snapshot struct {
	Live      int   `json:"sessions_live"`
	Degraded  int   `json:"sessions_degraded"`
	Admitted  int64 `json:"sessions_admitted"`
	Rejected  int64 `json:"sessions_rejected"`
	Shed      int64 `json:"sessions_shed"`
	Reaped    int64 `json:"sessions_reaped"`
	Completed int64 `json:"sessions_completed"`
	Failed    int64 `json:"sessions_failed"`
	// Sessions lists every live session's age and idle time, oldest
	// first, so operators can see a client going silent before the
	// reaper (or shedding) acts on it.
	Sessions []SessionAge `json:"sessions,omitempty"`
}

// SessionAge is one live session's liveness view in a Snapshot.
type SessionAge struct {
	SID      uint32 `json:"sid"`
	Tenant   string `json:"tenant,omitempty"`
	AgeMS    int64  `json:"age_ms"`
	IdleMS   int64  `json:"idle_ms"`
	Degraded bool   `json:"degraded,omitempty"`
}

// Server owns this node's side of every session on every attached link:
// it admits OPENs in arrival order, runs one session-scoped deployment of
// its partition per admitted session, and closes each session with its
// outcome. One Server serves many muxes (one per peer link).
type Server struct {
	cfg ServerConfig
	// spec is this node's share of the graph, compiled once; every session
	// lowers it, concurrently, and none writes it.
	spec *spi.PartitionSpec
	adm  *admitter

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []openReq
	stopped bool

	wg       sync.WaitGroup
	reapStop chan struct{}
	reapTick *time.Ticker
	lmu      sync.Mutex
	links    map[*Mux]*transport.Link // Serve's accepted, still-alive links

	admitted  int64
	rejected  int64
	shed      int64
	reaped    int64
	completed int64
	failed    int64
}

type openReq struct {
	m      *Mux
	sid    uint32
	tenant string
}

// NewServer compiles this node's partition of the graph once — validating
// graph, mapping and node assignment — and starts the admission dispatcher.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Graph == nil || cfg.Mapping == nil || cfg.Kernels == nil {
		return nil, fmt.Errorf("session: ServerConfig needs Graph, Mapping and Kernels")
	}
	nodes := cfg.Mapping.NumProcs // no NodeOf is the identity assignment
	if len(cfg.NodeOf) > 0 {
		nodes = 1 + slices.Max(cfg.NodeOf)
	}
	spec, err := spi.BuildPartition(cfg.Graph, cfg.Mapping, cfg.NodeOf, nodes, cfg.Node, cfg.Block, false)
	if err != nil {
		return nil, err
	}
	spec.Iterations = cfg.Iterations
	s := &Server{cfg: cfg, spec: spec, adm: newAdmitter(cfg.Admission), links: map[*Mux]*transport.Link{}}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.dispatch()
	if cfg.SessionTimeout > 0 {
		// Scan at a quarter of the timeout so a silent client is reaped
		// within ~1.25× the configured bound.
		interval := cfg.SessionTimeout / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		s.reapStop = make(chan struct{})
		s.reapTick = time.NewTicker(interval)
		s.wg.Add(1)
		go s.reapLoop()
	}
	return s, nil
}

// reapLoop periodically sheds sessions whose client has gone silent for
// longer than SessionTimeout.
func (s *Server) reapLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.reapStop:
			return
		case <-s.reapTick.C:
			s.reapOnce()
		}
	}
}

func (s *Server) reapOnce() {
	for _, e := range s.adm.entries() {
		e.mu.Lock()
		st, dead := e.stream, e.shed
		e.mu.Unlock()
		if st == nil || dead {
			continue
		}
		idle := st.IdleFor()
		if idle < s.cfg.SessionTimeout {
			continue
		}
		e.mu.Lock()
		e.shed = true
		e.mu.Unlock()
		s.mu.Lock()
		s.reaped++
		s.mu.Unlock()
		s.counter("session_reaped_total", "sessions shed because the client went silent", e.tenant).Inc()
		st.reap(idle)
	}
}

// Attach wires one mux into the server: its inbound OPENs feed the
// admission queue, and every session on it passes admission.
func (s *Server) Attach(m *Mux) {
	m.SetOnOpen(s.enqueue)
}

func (s *Server) enqueue(m *Mux, sid uint32, tenant string) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.queue = append(s.queue, openReq{m: m, sid: sid, tenant: tenant})
	s.cond.Signal()
	s.mu.Unlock()
}

// dispatch drains the open queue in arrival order on a single goroutine,
// so admission verdicts are deterministic in that order and OPENOK sends
// (which may block on a full link) never stall a link reader.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopped {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.stopped {
			s.mu.Unlock()
			return
		}
		req := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.handleOpen(req)
	}
}

func (s *Server) handleOpen(req openReq) {
	// Adopting first claims the ID: an OPEN for ID 0, or for a session live
	// on this link, is refused before admission books or sheds anything.
	stream := req.m.Adopt(req.sid, req.m.Link().PeerNode())
	if stream == nil {
		s.reject(req, StatusRejectedID)
		return
	}
	status, e, victim := s.adm.admit(req.tenant)
	if victim != nil {
		s.mu.Lock()
		s.shed++
		s.mu.Unlock()
		s.counter("session_shed_total", "sessions evicted to make room", victim.tenant).Inc()
		victim.mu.Lock()
		st := victim.stream
		victim.mu.Unlock()
		if st != nil {
			st.shed()
		}
	}
	if status != StatusAdmitted {
		req.m.Release(stream)
		s.reject(req, status)
		return
	}
	e.mu.Lock()
	e.stream = stream
	e.mu.Unlock()
	stream.setAccount(func(delta int64) { s.adm.addBytes(e, delta) })
	// Should the link die under the verdict, the mux fan-out closes the
	// stream and runSession fails fast; it runs anyway to release the entry.
	_ = req.m.SendOpenOK(req.sid, StatusAdmitted)
	s.mu.Lock()
	s.admitted++
	s.mu.Unlock()
	s.counter("session_admitted_total", "sessions admitted", req.tenant).Inc()
	s.gauge("session_live", "currently live sessions", req.tenant).Add(1)
	s.wg.Add(1)
	go s.runSession(req.m, stream, e, req.tenant)
}

// reject answers an OPEN with a rejection verdict.
func (s *Server) reject(req openReq, status byte) {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
	s.cfg.Obs.Counter("session_rejected_total", "sessions refused by admission control",
		obs.L("tenant", req.tenant), obs.L("reason", StatusString(status))).Inc()
	_ = req.m.SendOpenOK(req.sid, status)
}

// runSession is one session's whole server-side life: instantiate
// kernels, lower the server's spec and run it over the session stream, send
// CLOSE with the outcome, release the admission slot.
func (s *Server) runSession(m *Mux, st *Stream, e *entry, tenant string) {
	defer s.wg.Done()
	start := time.Now()
	kernels := map[string]spi.Kernel{}
	for a, k := range s.cfg.Kernels(st.SID(), tenant) {
		kernels[s.cfg.Graph.Actor(a).Name] = k
	}
	_, err := spi.ExecutePartition(s.spec, kernels, spi.DistOptions{Links: st, Obs: s.cfg.Obs})

	status := CloseDone
	switch {
	case e.wasShed():
		status = CloseShed
	case err != nil:
		status = CloseError
	}
	_ = m.SendClose(st.SID(), status)
	m.Release(st)
	s.adm.release(e, st.takeQueued())

	s.mu.Lock()
	if status == CloseDone {
		s.completed++
	} else {
		s.failed++
	}
	s.mu.Unlock()
	s.gauge("session_live", "currently live sessions", tenant).Add(-1)
	if status == CloseDone {
		s.counter("session_completed_total", "sessions that ran to completion", tenant).Inc()
	} else {
		s.counter("session_failed_total", "sessions that ended in shed or error", tenant).Inc()
	}
	s.cfg.Obs.Histogram("session_duration_us", "per-session wall time in microseconds",
		obs.LatencyBucketsUS, obs.L("tenant", tenant)).Observe(float64(time.Since(start).Microseconds()))
}

func (s *Server) counter(name, help, tenant string) *obs.Counter {
	return s.cfg.Obs.Counter(name, help, obs.L("tenant", tenant))
}

func (s *Server) gauge(name, help, tenant string) *obs.Gauge {
	return s.cfg.Obs.Gauge(name, help, obs.L("tenant", tenant))
}

// Snapshot reports the admission book for health endpoints and tests.
func (s *Server) Snapshot() Snapshot {
	live, degraded := s.adm.counts()
	var ages []SessionAge
	for _, e := range s.adm.entries() {
		e.mu.Lock()
		st, deg := e.stream, e.degraded
		e.mu.Unlock()
		if st == nil {
			continue
		}
		ages = append(ages, SessionAge{
			SID:      st.SID(),
			Tenant:   e.tenant,
			AgeMS:    st.Age().Milliseconds(),
			IdleMS:   st.IdleFor().Milliseconds(),
			Degraded: deg,
		})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		Live:      live,
		Degraded:  degraded,
		Admitted:  s.admitted,
		Rejected:  s.rejected,
		Shed:      s.shed,
		Reaped:    s.reaped,
		Completed: s.completed,
		Failed:    s.failed,
		Sessions:  ages,
	}
}

// Close stops admitting and waits for every running session to finish.
// Callers should tear down (or let clients close) the underlying links
// first; a session blocked on a live, idle link will keep Close waiting.
func (s *Server) Close() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.reapStop != nil {
		close(s.reapStop)
		s.reapTick.Stop()
	}
	s.wg.Wait()
}
