//go:build race

package spi

// raceEnabled lets the long soak tests scale down under the race detector,
// which slows the link hot path about tenfold.
const raceEnabled = true
