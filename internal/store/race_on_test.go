//go:build race

package store

// raceEnabled reports that the race detector is on: it allocates on the
// program's behalf, so tests pinning a path's allocated bytes skip.
const raceEnabled = true
