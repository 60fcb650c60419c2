//go:build race

package apna

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
