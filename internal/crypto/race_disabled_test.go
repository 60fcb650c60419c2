//go:build !race

package crypto

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
