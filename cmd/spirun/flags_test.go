package main

import (
	"strings"
	"testing"

	"repro/cmd/internal/flagtest"
	"repro/cmd/internal/runcfg"
	"repro/internal/dsp"
	"repro/internal/lpc"
	"repro/internal/signal"
)

func TestFlagSurface(t *testing.T) {
	flagtest.Golden(t, "spirun", newFlagSet(&cli{Run: runcfg.Run{Seed: 1, Transport: "chan"}}))
}

// TestSessionsFlags pins the choices for flags -sessions used to accept
// and drop: -resync is refused as flag misuse (session-tagged acks are
// never suppressed, so it could only be a no-op), and -transport shm goes
// through the one transport picker and runs.
func TestSessionsFlags(t *testing.T) {
	c := cli{}
	if err := newFlagSet(&c).Parse(strings.Fields("-sessions 3 -transport tcp -resync")); err != nil {
		t.Fatal(err)
	}
	err := c.check()
	if err == nil || !strings.Contains(err.Error(), "-resync") || !strings.Contains(err.Error(), "-sessions") {
		t.Errorf("-sessions -resync: err = %v, want a misuse error naming both flags", err)
	}
	c.Opts.Resync = false
	if err := c.check(); err != nil {
		t.Errorf("-sessions without -resync: %v", err)
	}

	p := lpc.DefaultParams()
	x := signal.Speech(p.FrameSize, 3)
	model, err := dsp.LPCAnalyze(x, p.Order)
	if err != nil {
		t.Fatal(err)
	}
	serial := model.Residual(x)
	parallel, _, err := sessionsResidual(&runcfg.Run{Transport: "shm"}, model, x, 2, 3)
	if err != nil {
		t.Fatalf("-sessions -transport shm: %v", err)
	}
	for i := range serial {
		if parallel[i] != serial[i] {
			t.Fatalf("sample %d: parallel %g != serial %g", i, parallel[i], serial[i])
		}
	}
}
