package session

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/transport"
)

// Allocation guard for one admitted session, both halves, over loopback:
// OPEN, admission, ten iterations, CLOSE. The client half is a cold
// spi.ExecuteDistributed — it plans the graph, compiles and lowers its spec
// per session, which internal/spi pins on its own — so what moves this
// number beyond that is the server's: it compiled its spec once, in
// NewServer, and an admission only instantiates kernels and runs the spec
// as a static run (spi.ExecutePartition: no tail rings, no checkpoint) over
// the session stream. The benchmark's sessions_tcp bounds
// allocs_per_unit at 5 %; a regression fails here first.
func TestAllocsSession(t *testing.T) {
	h := startServe(t, transport.NewLoopback(), "alloc-sess", ServerConfig{}, true)
	defer h.stop()
	ref := localReference(t, h.iters)
	session := alloctest.Min(10, func() {
		got, status, err := h.runSession("t")
		if err != nil || status != CloseDone || !samePayloads(got, ref) {
			t.Fatalf("session: status %d, err %v, reference output %v", status, err, samePayloads(got, ref))
		}
	})
	alloctest.Check(t, "one 10-iteration session, client and server", session, pinnedSession)
}

// Measured with go1.24 at GOMAXPROCS=1: 358 allocations and 24 536 B while
// the server ran a cold ExecuteDistributed per admission; 268 and 21 672 B
// while every run started a goroutine per processor and kept its runtime
// edges in a map.
var pinnedSession = alloctest.Allocs{N: 254, Bytes: 21048}
