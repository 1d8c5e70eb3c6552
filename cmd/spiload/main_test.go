package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/cmd/internal/runcfg"
	"repro/internal/dataflow"
	"repro/internal/transport"
)

func builtinConfig(t *testing.T) loadConfig {
	t.Helper()
	g, err := dataflow.Parse(strings.NewReader(builtinGraph))
	if err != nil {
		t.Fatal(err)
	}
	return loadConfig{
		Run:         runcfg.Run{Graph: g, Assign: []int{0, 1, 1}, NodeOf: []int{0, 1}, Iters: 8, Seed: 7},
		Link:        transport.LinkConfig{Node: 1},
		Sessions:    20,
		Concurrency: 4,
		Tenants:     2,
		OpenTimeout: 20 * time.Second,
	}
}

// TestLoadInproc is the spiload end-to-end: a closed-loop run against
// the in-process server must admit and complete every session with
// digests matching the local reference.
func TestLoadInproc(t *testing.T) {
	cfg := builtinConfig(t)
	tr := transport.NewLoopback()
	var out bytes.Buffer
	stop, addr, err := startInproc(cfg, tr, "spiload-test", &out)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cfg.Connect = addr

	rep, err := runLoad(cfg, tr)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if rep.Started != cfg.Sessions || rep.Admitted != cfg.Sessions || rep.Completed != cfg.Sessions {
		t.Fatalf("report %+v, want %d sessions all completed", rep, cfg.Sessions)
	}
	if rep.Mismatched != 0 {
		t.Fatalf("%d digest mismatches", rep.Mismatched)
	}
	if rep.Tokens == 0 {
		t.Fatal("no tokens counted")
	}
	if err := summarize(&out, "load", rep); err != nil {
		t.Fatal(err)
	}
}

// TestLoadAdmissionRejections: a tenant quota of 1 with concurrent
// workers on one tenant forces rejections that the report must count,
// while every admitted session still completes bit-identically.
func TestLoadAdmissionRejections(t *testing.T) {
	cfg := builtinConfig(t)
	cfg.Tenants = 1
	cfg.Concurrency = 6
	cfg.Admission.TenantQuota = 1
	// The client runs the source, so the server's half of a session lasts
	// until the client has run its own and concurrent sessions really
	// overlap there. A server that hosts only the source finishes and frees
	// the quota by itself, in microseconds, whatever the clients do.
	cfg.Link.Node = 0
	// Enough sessions that six workers are certain to have two in flight at
	// once: twenty can be over before the second worker is scheduled.
	cfg.Sessions = 200
	tr := transport.NewLoopback()
	var out bytes.Buffer
	stop, addr, err := startInproc(cfg, tr, "spiload-test", &out)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cfg.Connect = addr

	rep, err := runLoad(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted+rep.Rejected != cfg.Sessions {
		t.Fatalf("admitted %d + rejected %d != %d started", rep.Admitted, rep.Rejected, cfg.Sessions)
	}
	if rep.Admitted == 0 || rep.Rejected == 0 {
		t.Fatalf("want both admissions and rejections under quota 1 with 6 workers, got %+v", rep)
	}
	if rep.Completed != rep.Admitted || rep.Mismatched != 0 {
		t.Fatalf("admitted sessions must complete clean: %+v", rep)
	}
}

func TestPercentile(t *testing.T) {
	rep := &loadReport{}
	for i := 1; i <= 100; i++ {
		rep.Latencies = append(rep.Latencies, time.Duration(i)*time.Millisecond)
	}
	if got := rep.percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := rep.percentile(99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	empty := &loadReport{}
	if empty.percentile(99) != 0 {
		t.Error("empty report percentiles should be zero")
	}
}
