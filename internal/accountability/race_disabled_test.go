//go:build !race

package accountability_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
