//go:build race

package server

// raceEnabled reports whether the race detector is on; it changes
// allocation counts (sync.Pool drops items at random under -race).
const raceEnabled = true
