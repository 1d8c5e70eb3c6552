package main

import (
	"testing"

	"repro/cmd/internal/flagtest"
	"repro/cmd/internal/runcfg"
)

func TestFlagSurface(t *testing.T) {
	flagtest.Golden(t, "spirun", newFlagSet(&cli{Run: runcfg.Run{Seed: 1, Transport: "chan"}}))
}
