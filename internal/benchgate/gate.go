package benchgate

import (
	"fmt"
	"math"
)

// Verdict is one metric's (or one gate's) outcome.
type Verdict string

const (
	// VerdictPass: no statistically confirmed change beyond the
	// minimum effect size.
	VerdictPass Verdict = "pass"
	// VerdictFail: a statistically confirmed regression beyond the
	// minimum effect size, in the metric's harmful direction.
	VerdictFail Verdict = "fail"
	// VerdictImproved: a statistically confirmed change in the
	// beneficial direction.
	VerdictImproved Verdict = "improved"
	// VerdictIndeterminate: too few runs on a side to test
	// significance; never fails the gate.
	VerdictIndeterminate Verdict = "indeterminate"
	// VerdictMissing: the metric exists on only one side (schema
	// drift or a new metric); never fails the gate.
	VerdictMissing Verdict = "missing"
)

// The gate's thresholds.
const (
	// alpha is the two-sided significance level. At 3 runs per side
	// the exact Mann–Whitney floor is exactly 0.1, so there only
	// perfect separation of the two sides can fail the gate. At CI's
	// 10 pairs it is a per-metric level with no family-wise rule, so
	// the benchmark's 12 metrics together fail one noisy tree against
	// itself more often than alpha (DESIGN §11).
	alpha = 0.1
	// minEffect is the minimum relative median shift (5%) a confirmed
	// change must exceed to count; below it, even a significant shift
	// is reported as pass. Noise gates on alpha, triviality on
	// minEffect.
	minEffect = 0.05
	// minRuns is the fewest samples per side a metric needs to be
	// testable: fewer cannot carry a U test.
	minRuns = 2
)

// MetricVerdict is one metric's comparison.
type MetricVerdict struct {
	Name      string  `json:"name"`
	Direction string  `json:"direction"`
	Unit      string  `json:"unit,omitempty"`
	Verdict   Verdict `json:"verdict"`
	// BaselineMedian and CurrentMedian summarize the two sides;
	// DeltaPct is the relative median shift in percent (positive =
	// current larger).
	BaselineMedian float64 `json:"baseline_median"`
	CurrentMedian  float64 `json:"current_median"`
	DeltaPct       float64 `json:"delta_pct"`
	// P is the two-sided Mann–Whitney p-value (1 when untestable).
	P float64 `json:"p"`
	// BaselineRuns and CurrentRuns count the samples per side.
	BaselineRuns int `json:"baseline_runs"`
	CurrentRuns  int `json:"current_runs"`
	// Reason explains the verdict in one human-readable clause.
	Reason string `json:"reason"`
}

// GateStatus is the whole-gate outcome.
type GateStatus string

const (
	StatusPass     GateStatus = "pass"
	StatusFail     GateStatus = "fail"
	StatusImproved GateStatus = "improved"
	// StatusNoBaseline is a skip: the sides ran different configs.
	StatusNoBaseline GateStatus = "no-baseline"
)

// GateResult is the gate's outcome — the GATE.json document.
type GateResult struct {
	ConfigHash string     `json:"config_hash"`
	Status     GateStatus `json:"status"`
	// BaselineCommit and CurrentCommit locate the two sides in
	// history.
	BaselineCommit string `json:"baseline_commit,omitempty"`
	CurrentCommit  string `json:"current_commit,omitempty"`
	// BaselineRuns and CurrentRuns count artifacts per side.
	BaselineRuns int `json:"baseline_runs"`
	CurrentRuns  int `json:"current_runs"`
	// Alpha and MinEffect record the thresholds the verdicts used.
	Alpha     float64 `json:"alpha"`
	MinEffect float64 `json:"min_effect"`
	// Metrics holds the per-metric verdicts; Regressions and
	// Improvements count the confirmed ones.
	Metrics      []MetricVerdict `json:"metrics,omitempty"`
	Regressions  int             `json:"regressions"`
	Improvements int             `json:"improvements"`
	// Reason explains non-compared statuses (no-baseline).
	Reason string `json:"reason,omitempty"`
}

// Compare gates current against baseline. Each side needs at least one
// artifact, and all of a side's artifacts one config hash. The sides
// must agree on the provenance config hash, or the result is
// StatusNoBaseline — a skip, never a false verdict. Reruns on a side
// merge their samples per metric before testing.
func Compare(baseline, current []*Artifact) (*GateResult, error) {
	curHash, err := sideHash(current)
	if err != nil {
		return nil, fmt.Errorf("benchgate: current side: %w", err)
	}
	if _, err := sideHash(baseline); err != nil {
		return nil, fmt.Errorf("benchgate: baseline side: %w", err)
	}
	res := &GateResult{
		ConfigHash:     curHash,
		BaselineCommit: baseline[0].Provenance.Commit,
		CurrentCommit:  current[0].Provenance.Commit,
		BaselineRuns:   len(baseline),
		CurrentRuns:    len(current),
		Alpha:          alpha,
		MinEffect:      minEffect,
	}
	if !baseline[0].Provenance.Comparable(current[0].Provenance) {
		res.Status = StatusNoBaseline
		res.Reason = fmt.Sprintf("config hash mismatch: baseline %s, current %s — not comparable",
			baseline[0].Provenance.ShortConfigHash(), current[0].Provenance.ShortConfigHash())
		return res, nil
	}

	baseVals := mergeSamples(baseline)
	curVals := mergeSamples(current)
	for _, name := range metricOrder(current, baseline) {
		m := metricMeta(current, baseline, name)
		mv := compareMetric(m, baseVals[name], curVals[name])
		switch mv.Verdict {
		case VerdictFail:
			res.Regressions++
		case VerdictImproved:
			res.Improvements++
		}
		res.Metrics = append(res.Metrics, mv)
	}
	switch {
	case res.Regressions > 0:
		res.Status = StatusFail
	case res.Improvements > 0:
		res.Status = StatusImproved
	default:
		res.Status = StatusPass
	}
	return res, nil
}

// compareMetric gates one metric.
func compareMetric(m Metric, base, cur []float64) MetricVerdict {
	mv := MetricVerdict{
		Name:           m.Name,
		Direction:      m.Direction.String(),
		Unit:           m.Unit,
		BaselineMedian: median(base),
		CurrentMedian:  median(cur),
		BaselineRuns:   len(base),
		CurrentRuns:    len(cur),
		P:              1,
	}
	switch {
	case len(base) == 0:
		mv.Verdict, mv.Reason = VerdictMissing, "metric absent from baseline"
		return mv
	case len(cur) == 0:
		mv.Verdict, mv.Reason = VerdictMissing, "metric absent from current runs"
		return mv
	}
	mv.DeltaPct = relativeDelta(mv.BaselineMedian, mv.CurrentMedian) * 100
	if len(base) < minRuns || len(cur) < minRuns {
		mv.Verdict = VerdictIndeterminate
		mv.Reason = fmt.Sprintf("fewer than %d runs on a side — cannot separate change from noise", minRuns)
		return mv
	}
	mv.P = MannWhitneyU(base, cur)
	const minEffectPct = minEffect * 100
	harmful := mv.DeltaPct < -minEffectPct // HigherBetter: drop is harm
	helpful := mv.DeltaPct > +minEffectPct
	if m.Direction == LowerBetter {
		harmful, helpful = helpful, harmful
	}
	switch {
	case mv.P > alpha:
		mv.Verdict = VerdictPass
		mv.Reason = fmt.Sprintf("not significant (p=%.3f > α=%.2f)", mv.P, alpha)
	case harmful:
		mv.Verdict = VerdictFail
		mv.Reason = fmt.Sprintf("confirmed %s regression: %+.1f%% (p=%.3f, threshold %.0f%%)",
			m.Direction, mv.DeltaPct, mv.P, minEffectPct)
	case helpful:
		mv.Verdict = VerdictImproved
		mv.Reason = fmt.Sprintf("confirmed improvement: %+.1f%% (p=%.3f)", mv.DeltaPct, mv.P)
	default:
		mv.Verdict = VerdictPass
		mv.Reason = fmt.Sprintf("significant but below the %.0f%% effect threshold (%+.1f%%)",
			minEffectPct, mv.DeltaPct)
	}
	return mv
}

// relativeDelta is (cur-base)/|base|; a change from exactly zero is
// ±1 (100%) so zero baselines cannot divide the gate away.
func relativeDelta(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Copysign(1, cur)
	}
	return (cur - base) / math.Abs(base)
}

// sideHash checks that one side holds artifacts, all under one config
// hash, and returns it.
func sideHash(arts []*Artifact) (string, error) {
	if len(arts) == 0 {
		return "", fmt.Errorf("no artifacts")
	}
	hash := arts[0].Provenance.ConfigHash
	for _, a := range arts[1:] {
		if a.Provenance.ConfigHash != hash {
			return "", fmt.Errorf("mixed config hashes within one side (%.12s vs %.12s)",
				hash, a.Provenance.ConfigHash)
		}
	}
	return hash, nil
}

// mergeSamples pools every artifact's samples per metric name.
func mergeSamples(arts []*Artifact) map[string][]float64 {
	merged := make(map[string][]float64)
	for _, a := range arts {
		for _, m := range a.Metrics {
			merged[m.Name] = append(merged[m.Name], m.Values...)
		}
	}
	return merged
}

// metricOrder lists metric names in the current side's extraction
// order, then baseline-only stragglers.
func metricOrder(current, baseline []*Artifact) []string {
	seen := make(map[string]bool)
	var names []string
	for _, side := range [][]*Artifact{current, baseline} {
		for _, a := range side {
			for _, m := range a.Metrics {
				if !seen[m.Name] {
					seen[m.Name] = true
					names = append(names, m.Name)
				}
			}
		}
	}
	return names
}

// metricMeta finds a metric's direction/unit from whichever side has
// it.
func metricMeta(current, baseline []*Artifact, name string) Metric {
	for _, side := range [][]*Artifact{current, baseline} {
		for _, a := range side {
			if m := a.Metric(name); m != nil {
				return Metric{Name: name, Direction: m.Direction, Unit: m.Unit}
			}
		}
	}
	return Metric{Name: name}
}
