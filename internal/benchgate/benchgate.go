// Package benchgate turns the repo's BENCH_*.json artifacts from
// per-run snapshots into enforced trajectories: it parses both
// artifact shapes the bench job emits (BENCH_e8 and BENCH_e11, one
// JSON object each, the two experiments that time something) into a
// common series of direction-tagged metrics, aggregates N reruns per
// side, and applies a Mann–Whitney U
// test with a minimum-effect-size threshold per metric, so noise never
// fails the gate and real regressions cannot hide behind variance.
//
// Baselines are keyed by the provenance config hash stamped into every
// artifact (internal/provenance): two runs compare like-for-like only
// when their configuration digests match, and a mismatch yields "no
// comparable baseline" — a skip, never a false verdict. The cmd front
// end (cmd/apna-gate) wires the pieces into CI: restore baseline,
// rerun the short suites, compare, publish GATE.json + report.md,
// fail the build on a statistically confirmed regression, update the
// baseline. A deterministic count is not gated here: equal reruns tie
// and cannot fail a rank test, so such counts are held by byte-exact
// goldens instead (the scenario corpus, E12's test golden).
package benchgate
