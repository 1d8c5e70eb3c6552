//go:build !race

package spi

const raceEnabled = false
