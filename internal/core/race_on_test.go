//go:build race

package core

// raceEnabled reports that the race detector is on: it slows every
// memory access, so the 100,000-device test skips.
const raceEnabled = true
