package main

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/demo"
	"repro/internal/orch"
	"repro/internal/spi"
	"repro/internal/transport"
)

// TestWorkerModeTCP runs the orchestrated worker mode end to end over
// real TCP sockets: a coordinator on an ephemeral port, three runWorker
// instances that know nothing but the coordinator's address, per-epoch
// ephemeral data listeners, and a forced migration — digests must match
// the static single-process run bit for bit. This is the
// partition-scoped-manifest path: no worker ever sees the full graph.
func TestWorkerModeTCP(t *testing.T) {
	const iterations, seed = 18, 5
	g := dataflow.New("wtcp")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	g.AddEdge("ab", a, b, 1, 1, dataflow.EdgeSpec{TokenBytes: 8, Delay: 2})
	g.AddEdge("bc", b, c, 1, 1, dataflow.EdgeSpec{TokenBytes: 4, ProduceDynamic: true, ConsumeDynamic: true, Delay: 1})
	m, err := demo.Mapping(g, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}

	// Static reference.
	digests := demo.Sinks(g)
	var dmu sync.Mutex
	kernels, err := demo.Kernels(g, seed, digests, &dmu)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spi.Execute(g, m, kernels, iterations); err != nil {
		t.Fatal(err)
	}

	tcp := &transport.TCP{}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// The coordinator listens on an ephemeral port; the workers learn it
	// from the listener it opens.
	bound := make(chan string, 1)
	coord, err := orch.NewCoordinator(orch.CoordConfig{
		Transport: addrTransport{tcp, bound}, Addr: "127.0.0.1:0",
		Graph: g, Mapping: m,
		Iterations: iterations, EpochIters: 6, MinWorkers: 3,
		Heartbeat: 50 * time.Millisecond, PeerTimeout: 2 * time.Second,
		EpochTimeout: 20 * time.Second,
		OnPlace: func(epoch int, placement []int, ids []uint32) []int {
			if epoch != 1 {
				return placement
			}
			rotated := make([]int, len(placement))
			for p, slot := range placement {
				rotated[p] = (slot + 1) % len(ids)
			}
			return rotated
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rep *orch.Report
		err error
	}
	ran := make(chan result, 1)
	go func() {
		rep, err := coord.Run(ctx)
		ran <- result{rep, err}
	}()
	var coordAddr string
	select {
	case coordAddr = <-bound:
	case r := <-ran:
		t.Fatalf("coordinator ended before listening: %v", r.err)
	}

	errs := make(chan error, 3)
	for _, name := range []string{"wa", "wb", "wc"} {
		wc := orch.WorkerConfig{
			Transport: tcp, Coord: coordAddr, Name: name,
			Heartbeat: 50 * time.Millisecond, PeerTimeout: 2 * time.Second,
		}
		go func() {
			var out bytes.Buffer
			errs <- runWorker(ctx, wc, "127.0.0.1", seed, &out)
		}()
	}

	r := <-ran
	if r.err != nil {
		t.Fatal(r.err)
	}
	rep := r.rep
	for name, want := range digests {
		if rep.Digests[name] != *want {
			t.Errorf("sink %s digest = %#x, want %#x (static)", name, rep.Digests[name], *want)
		}
	}
	if rep.Migrations == 0 {
		t.Error("forced rotation over TCP produced no migrations")
	}
	if rep.Aborts != 0 {
		t.Errorf("planned migration needed %d aborts", rep.Aborts)
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// addrTransport is TCP that reports the address of every listener it opens.
type addrTransport struct {
	*transport.TCP
	bound chan<- string
}

func (a addrTransport) Listen(addr string) (transport.Listener, error) {
	ln, err := a.TCP.Listen(addr)
	if err == nil {
		a.bound <- ln.Addr()
	}
	return ln, err
}
