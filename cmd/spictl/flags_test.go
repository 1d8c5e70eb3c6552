package main

import (
	"testing"
	"time"

	"repro/cmd/internal/flagtest"
	"repro/cmd/internal/runcfg"
	"repro/internal/spi"
)

func TestFlagSurface(t *testing.T) {
	flagtest.Golden(t, "spictl", newFlagSet(&ctlConfig{Run: runcfg.Run{
		Iters: 24, Seed: 1, Deadline: 5 * time.Minute,
		Opts: spi.DistOptions{Heartbeat: 25 * time.Millisecond},
	}}))
}
