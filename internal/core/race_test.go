//go:build race

package core

// raceEnabled reports whether the race detector is on; it changes
// allocation counts and sizes.
const raceEnabled = true
