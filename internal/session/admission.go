package session

import (
	"sort"
	"sync"
)

// Admission bounds what one node will serve. The zero value admits
// everything (no caps).
type Admission struct {
	// MaxSessions caps concurrently live sessions on this node. 0 means
	// unbounded. When the node is full, a new OPEN either sheds the
	// oldest *degraded* session to make room or is rejected with
	// StatusRejectedCapacity.
	MaxSessions int
	// TenantQuota caps live sessions per tenant. 0 means unbounded.
	TenantQuota int
	// TenantWeights optionally partitions MaxSessions proportionally:
	// tenant t may hold at most max(1, MaxSessions*w(t)/Σw) sessions,
	// where unlisted tenants get weight 1 and Σw sums the configured
	// weights. Beyond-share opens reject with StatusRejectedQuota.
	// Ignored when empty or when MaxSessions is 0.
	TenantWeights map[string]int
	// MaxTenantBytes bounds a tenant's estimated queued inbound bytes
	// (delivered but not yet acknowledged by its kernels, summed over its
	// sessions). Exceeding it marks the tenant's oldest healthy session
	// *degraded*: still running, but first in line to be shed when the
	// node fills up. 0 means unbounded.
	MaxTenantBytes int64
}

// entry is one live session in the admitter's book. sid alone cannot key
// the book — IDs are allocated per client link — so entries are keyed by
// admission sequence number, which also defines "oldest".
type entry struct {
	seq    uint64
	tenant string
	stream *Stream

	mu       sync.Mutex
	degraded bool
	shed     bool
}

func (e *entry) wasShed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.shed
}

// admitter applies the Admission policy. Its lock nests inside stream
// locks (byte accounting calls in with s.mu held); it therefore never
// calls back into a Stream.
type admitter struct {
	cfg       Admission
	weightSum int

	mu          sync.Mutex
	seq         uint64
	live        map[uint64]*entry
	tenantLive  map[string]int
	tenantBytes map[string]int64
	degraded    int
}

func newAdmitter(cfg Admission) *admitter {
	sum := 0
	for _, w := range cfg.TenantWeights {
		if w > 0 {
			sum += w
		}
	}
	return &admitter{
		cfg:         cfg,
		weightSum:   sum,
		live:        map[uint64]*entry{},
		tenantLive:  map[string]int{},
		tenantBytes: map[string]int64{},
	}
}

// tenantCap returns tenant's session cap, 0 meaning unbounded.
func (a *admitter) tenantCap(tenant string) int {
	cap := a.cfg.TenantQuota
	if a.cfg.MaxSessions > 0 && a.weightSum > 0 {
		w := a.cfg.TenantWeights[tenant]
		if w <= 0 {
			w = 1
		}
		share := a.cfg.MaxSessions * w / a.weightSum
		if share < 1 {
			share = 1
		}
		if cap == 0 || share < cap {
			cap = share
		}
	}
	return cap
}

// admit decides one OPEN. On StatusAdmitted it books the session and
// returns its entry; victim, when non-nil, is a degraded session that was
// unbooked to make room — the caller must shed its stream (outside any
// admitter call). Decisions are a pure function of the book's state, so
// a deterministic arrival order yields deterministic verdicts.
func (a *admitter) admit(tenant string) (status byte, e *entry, victim *entry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cap := a.tenantCap(tenant); cap > 0 && a.tenantLive[tenant] >= cap {
		return StatusRejectedQuota, nil, nil
	}
	if a.cfg.MaxSessions > 0 && len(a.live) >= a.cfg.MaxSessions {
		victim = a.oldestLocked(true, "")
		if victim == nil {
			return StatusRejectedCapacity, nil, nil
		}
		victim.mu.Lock()
		victim.shed = true
		victim.mu.Unlock()
		a.unbookLocked(victim)
	}
	a.seq++
	e = &entry{seq: a.seq, tenant: tenant}
	a.live[e.seq] = e
	a.tenantLive[tenant]++
	return StatusAdmitted, e, victim
}

// release unbooks a finished session and returns its residual queued
// bytes to the tenant budget. Safe to call after the entry was already
// unbooked by shedding.
func (a *admitter) release(e *entry, residualBytes int64) {
	a.mu.Lock()
	if _, ok := a.live[e.seq]; ok {
		a.unbookLocked(e)
	}
	if residualBytes != 0 {
		a.tenantBytes[e.tenant] -= residualBytes
		if a.tenantBytes[e.tenant] <= 0 {
			delete(a.tenantBytes, e.tenant)
		}
	}
	a.mu.Unlock()
}

func (a *admitter) unbookLocked(e *entry) {
	delete(a.live, e.seq)
	a.tenantLive[e.tenant]--
	if a.tenantLive[e.tenant] <= 0 {
		delete(a.tenantLive, e.tenant)
	}
	e.mu.Lock()
	if e.degraded {
		a.degraded--
	}
	e.mu.Unlock()
}

// addBytes moves the tenant's queued-byte estimate and, past the budget,
// degrades the tenant's oldest healthy session. Degradation is sticky:
// draining the queue does not restore the session, it stays the
// preferred shed victim.
func (a *admitter) addBytes(e *entry, delta int64) {
	a.mu.Lock()
	a.tenantBytes[e.tenant] += delta
	over := a.cfg.MaxTenantBytes > 0 && a.tenantBytes[e.tenant] > a.cfg.MaxTenantBytes
	if a.tenantBytes[e.tenant] <= 0 {
		delete(a.tenantBytes, e.tenant)
	}
	if over {
		if v := a.oldestLocked(false, e.tenant); v != nil {
			v.mu.Lock()
			v.degraded = true
			v.mu.Unlock()
			a.degraded++
		}
	}
	a.mu.Unlock()
}

// oldestLocked scans the book for the lowest-seq live entry matching the
// filter: degraded sessions when wantDegraded, else healthy sessions of
// the given tenant.
func (a *admitter) oldestLocked(wantDegraded bool, tenant string) *entry {
	var best *entry
	for _, e := range a.live {
		e.mu.Lock()
		deg := e.degraded
		e.mu.Unlock()
		if wantDegraded {
			if !deg {
				continue
			}
		} else if deg || e.tenant != tenant {
			continue
		}
		if best == nil || e.seq < best.seq {
			best = e
		}
	}
	return best
}

// entries snapshots the live book in admission order (oldest first), for
// the reaper's scan and the health snapshot's per-session ages.
func (a *admitter) entries() []*entry {
	a.mu.Lock()
	out := make([]*entry, 0, len(a.live))
	for _, e := range a.live {
		out = append(out, e)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func (a *admitter) counts() (live, degraded int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.live), a.degraded
}

func (a *admitter) queuedBytes(tenant string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tenantBytes[tenant]
}

// totalBytes sums queued inbound bytes across all tenants, the node-wide
// backpressure signal Load reports for placement.
func (a *admitter) totalBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, b := range a.tenantBytes {
		n += b
	}
	return n
}
