package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/cmd/internal/runcfg"
	"repro/internal/dataflow"
	"repro/internal/orch"
	"repro/internal/spi"
)

func testCtlConfig(t *testing.T) ctlConfig {
	t.Helper()
	g, err := dataflow.Parse(strings.NewReader(builtinGraph))
	if err != nil {
		t.Fatal(err)
	}
	return ctlConfig{
		Run: runcfg.Run{
			Graph: g, Assign: []int{0, 1, 2, 0}, Iters: 24, Seed: 11, Deadline: 60 * time.Second,
			Opts: spi.DistOptions{Heartbeat: 20 * time.Millisecond, PeerTimeout: 150 * time.Millisecond},
		},
		Coord:  orch.CoordConfig{EpochIters: 6, EpochTimeout: 15 * time.Second},
		InProc: 3, MigrateAt: -1, Verify: true,
	}
}

// TestRunCtlHealthy drives the full in-proc pool and requires the
// orchestrated digests to verify against the static run.
func TestRunCtlHealthy(t *testing.T) {
	var out bytes.Buffer
	if err := runCtl(testCtlConfig(t), &out); err != nil {
		t.Fatalf("runCtl: %v\n%s", err, out.String())
	}
	for _, want := range []string{"digest snk ", "commits=4 aborts=0", "block=6 ", "bit-identical"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunCtlMigrateAndKill forces a planned migration at epoch 1 and
// kills a worker at epoch 2: the run must recover, verify, and report
// both the migrations and the loss.
func TestRunCtlMigrateAndKill(t *testing.T) {
	cfg := testCtlConfig(t)
	cfg.MigrateAt = 1
	cfg.Kill = &fault{Worker: "w2", Epoch: 2}
	var out bytes.Buffer
	if err := runCtl(cfg, &out); err != nil {
		t.Fatalf("runCtl: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"workers_lost=1", "bit-identical"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "migrations=0 ") {
		t.Errorf("expected migrations, got:\n%s", s)
	}
}

func TestParseFault(t *testing.T) {
	if f, err := parseFault("w1@3"); err != nil || f.Worker != "w1" || f.Epoch != 3 {
		t.Errorf("parseFault(w1@3) = %+v, %v", f, err)
	}
	if f, err := parseFault(""); err != nil || f != nil {
		t.Errorf("parseFault(empty) = %+v, %v", f, err)
	}
	for _, bad := range []string{"w1", "@3", "w1@", "w1@-2", "w1@x"} {
		if _, err := parseFault(bad); err == nil {
			t.Errorf("parseFault(%q) accepted", bad)
		}
	}
}
