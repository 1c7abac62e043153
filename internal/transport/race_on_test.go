//go:build race

package transport

// raceEnabled reports that the race detector is on: sync.Pool then drops
// Puts at random, so tests pinning a pooled path's allocations skip.
const raceEnabled = true
