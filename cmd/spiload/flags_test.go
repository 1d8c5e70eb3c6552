package main

import (
	"testing"

	"repro/cmd/internal/flagtest"
	"repro/cmd/internal/runcfg"
)

// The only removal from the surface recorded in flags.golden is -bench,
// which went with the second benchmark harness.
func TestFlagSurface(t *testing.T) {
	var inproc, inprocTCP bool
	flagtest.Golden(t, "spiload", newFlagSet(&loadConfig{Run: runcfg.Run{Iters: 10, Seed: 1}}, &inproc, &inprocTCP))
}
