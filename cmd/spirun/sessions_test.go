package main

import (
	"testing"

	"repro/cmd/internal/runcfg"
	"repro/internal/dsp"
	"repro/internal/lpc"
	"repro/internal/signal"
)

// TestSessionsResidualMatchesSerial: N concurrent actor-D sessions over
// one shared link must each reproduce the serial residual bit-exactly,
// and the stats table must aggregate per-edge counters across sessions —
// one row per edge with summed traffic, not N duplicate rows.
func TestSessionsResidualMatchesSerial(t *testing.T) {
	p := lpc.DefaultParams()
	x := signal.Speech(p.FrameSize, 1)
	model, err := dsp.LPCAnalyze(x, p.Order)
	if err != nil {
		t.Fatal(err)
	}
	serial := model.Residual(x)

	const pes, sessions = 3, 5
	parallel, stats, err := sessionsResidual(&runcfg.Run{Transport: "loopback"}, model, x, pes, sessions)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("got %d samples, want %d", len(parallel), len(serial))
	}
	for i := range serial {
		if parallel[i] != serial[i] {
			t.Fatalf("sample %d: parallel %g != serial %g", i, parallel[i], serial[i])
		}
	}

	// Aggregation satellite: every cross-node edge appears exactly once,
	// carrying one message per session.
	seen := map[string]bool{}
	for _, e := range stats.Edges {
		if seen[e.Name] {
			t.Errorf("edge %s appears more than once in the aggregated table", e.Name)
		}
		seen[e.Name] = true
		if e.Stats.Messages != sessions {
			t.Errorf("edge %s: %d messages, want %d (one per session)", e.Name, e.Stats.Messages, sessions)
		}
	}
	if len(stats.Edges) != 3*pes {
		t.Errorf("aggregated table has %d edges, want %d (coeffs/sect/errs per PE)", len(stats.Edges), 3*pes)
	}
	if stats.SPI.Messages != int64(sessions*3*pes) {
		t.Errorf("total messages %d, want %d", stats.SPI.Messages, sessions*3*pes)
	}
}

// TestSessionsResidualTCP runs a smaller configuration over real TCP.
func TestSessionsResidualTCP(t *testing.T) {
	p := lpc.DefaultParams()
	x := signal.Speech(p.FrameSize, 2)
	model, err := dsp.LPCAnalyze(x, p.Order)
	if err != nil {
		t.Fatal(err)
	}
	serial := model.Residual(x)
	parallel, _, err := sessionsResidual(&runcfg.Run{Transport: "tcp"}, model, x, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if parallel[i] != serial[i] {
			t.Fatalf("sample %d: parallel %g != serial %g", i, parallel[i], serial[i])
		}
	}
}
