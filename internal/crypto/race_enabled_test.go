//go:build race

package crypto

// raceEnabled reports whether the race detector is compiled in; alloc
// assertions are skipped under it (instrumentation allocates, and
// sync.Pool intentionally drops items at random in race mode).
const raceEnabled = true
