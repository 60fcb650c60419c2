// Package benchgate turns the benchmark's timed runs from per-run
// snapshots into enforced trajectories: it parses the benchmark's
// results file (go run ./bench writes bench/out/results.json, one JSON
// object) into a series of direction-tagged metrics, pools N runs per
// side, and applies a Mann–Whitney U test with a minimum-effect-size
// threshold per metric, so noise never fails the gate and real
// regressions cannot hide behind variance.
//
// The two sides are the parent commit and the change, run in
// interleaved pairs in one CI job; nothing is kept between jobs. Two
// sides compare like-for-like only when the provenance config hashes
// stamped into their results files (internal/provenance) match, and a
// mismatch yields "not comparable" — a skip, never a false verdict.
// The cmd front end (cmd/apna-gate) reads each side's directory,
// compares the two, publishes GATE.json + report.md and fails the build
// on a statistically confirmed regression. A deterministic count is not
// gated here: equal runs tie and cannot fail a rank test, so such
// counts are held by byte-exact goldens instead (the scenario corpus,
// E12's test golden).
package benchgate
