package main

import (
	"testing"

	"repro/cmd/internal/flagtest"
)

func TestFlagSurface(t *testing.T) {
	var (
		graph, file string
		assign      []int
		pes         int
	)
	flagtest.Golden(t, "spigraph", newFlagSet(&graph, &file, &assign, &pes))
}
