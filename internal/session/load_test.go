package session

import "testing"

func TestPickLeastLoaded(t *testing.T) {
	cases := []struct {
		name  string
		loads []Load
		want  int
	}{
		{"empty", nil, -1},
		{"fewest live wins",
			[]Load{{Live: 3}, {Live: 1}, {Live: 2}}, 1},
		{"full node loses to busier open node",
			[]Load{{Live: 2, Capacity: 2}, {Live: 5, Capacity: 8}}, 1},
		{"degraded breaks live ties",
			[]Load{{Live: 2, Degraded: 1}, {Live: 2, Degraded: 0}}, 1},
		{"queued bytes break remaining ties",
			[]Load{{Live: 1, QueuedBytes: 900}, {Live: 1, QueuedBytes: 10}}, 1},
		{"exact tie routes to lowest index",
			[]Load{{Live: 1}, {Live: 1}, {Live: 1}}, 0},
		{"all full still picks something",
			[]Load{{Live: 4, Capacity: 2}, {Live: 2, Capacity: 2}}, 1},
		{"unbounded capacity is never full",
			[]Load{{Live: 9, Capacity: 0}, {Live: 3, Capacity: 3}}, 0},
	}
	for _, tc := range cases {
		if got := PickLeastLoaded(tc.loads); got != tc.want {
			t.Errorf("%s: picked %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestServerLoadRouting books sessions on two real servers and checks
// the pool routes each next OPEN away from the busier one.
func TestServerLoadRouting(t *testing.T) {
	g, m := testGraph()
	mk := func(cap int) *Server {
		srv, err := NewServer(ServerConfig{
			Graph: g, Mapping: m, Iterations: 1,
			Kernels:   defaultServerKernels,
			Admission: Admission{MaxSessions: cap},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	a, b := mk(4), mk(4)
	loads := func() []Load { return []Load{a.Load(), b.Load()} }

	if got := a.Load(); got.Live != 0 || got.Capacity != 4 || got.Full() {
		t.Fatalf("idle server load = %+v", got)
	}
	// Book sessions straight into the admission book; routing only reads
	// the book, so no client link is needed.
	var entries []*entry
	book := func(s *Server, tenant string) {
		st, e, _ := s.adm.admit(tenant)
		if st != StatusAdmitted {
			t.Fatalf("admit on %p: status %d", s, st)
		}
		entries = append(entries, e)
	}
	book(a, "t0")
	book(a, "t0")
	if i := PickLeastLoaded(loads()); i != 1 {
		t.Fatalf("with a at 2 sessions, routed to %d, want 1 (b)", i)
	}
	book(b, "t1")
	book(b, "t1")
	book(b, "t1")
	if i := PickLeastLoaded(loads()); i != 0 {
		t.Fatalf("with b at 3 sessions, routed to %d, want 0 (a)", i)
	}
	// Fill a to capacity: everything must route to b even though b holds
	// more sessions.
	book(a, "t0")
	book(a, "t0")
	if got := a.Load(); !got.Full() {
		t.Fatalf("a at MaxSessions should be Full, load = %+v", got)
	}
	if i := PickLeastLoaded(loads()); i != 1 {
		t.Fatalf("with a full, routed to %d, want 1 (b)", i)
	}
	// Queued-byte pressure tips an otherwise-equal pair.
	b.adm.addBytes(entries[2], 1<<20)
	la, lb := a.Load(), b.Load()
	if lb.QueuedBytes != 1<<20 || la.QueuedBytes != 0 {
		t.Fatalf("queued bytes: a=%d b=%d", la.QueuedBytes, lb.QueuedBytes)
	}
	if !(Load{}).Less(lb) {
		t.Fatal("an idle node should order before a pressured one")
	}
}
