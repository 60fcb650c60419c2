package benchgate

import (
	"encoding/json"
	"fmt"
	"strings"
)

// JSON renders the machine-readable GATE.json.
func (g *GateResult) JSON() ([]byte, error) { return json.MarshalIndent(g, "", "  ") }

// Markdown renders the human-readable report.md: the verdict and a
// table of per-metric deltas, p-values and verdicts.
func (g *GateResult) Markdown() []byte {
	var b strings.Builder
	b.WriteString("# Bench trend gate\n\n")
	switch g.Status {
	case StatusFail:
		b.WriteString("**Verdict: FAIL** — statistically confirmed regression(s) below.\n\n")
	case StatusNoBaseline:
		fmt.Fprintf(&b, "**Verdict: SKIP** — %s.\n", g.Reason)
		return []byte(b.String())
	default:
		b.WriteString("**Verdict: PASS** — no confirmed regression.\n\n")
	}
	fmt.Fprintf(&b, "Config %.12s: baseline commit `%.12s` (%d runs) vs current `%.12s` (%d runs); α=%.2f, min effect %.0f%%.\n\n",
		g.ConfigHash, g.BaselineCommit, g.BaselineRuns, g.CurrentCommit, g.CurrentRuns,
		g.Alpha, g.MinEffect*100)
	b.WriteString("| metric | direction | baseline | current | Δ | p | verdict |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---|\n")
	for _, m := range g.Metrics {
		verdict := string(m.Verdict)
		if m.Verdict == VerdictFail {
			verdict = "**FAIL**"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %+.1f%% | %.3f | %s |\n",
			m.Name, m.Direction,
			formatValue(m.BaselineMedian, m.Unit), formatValue(m.CurrentMedian, m.Unit),
			m.DeltaPct, m.P, verdict)
	}
	b.WriteString("\n")
	for _, m := range g.Metrics {
		if m.Verdict == VerdictFail || m.Verdict == VerdictImproved {
			fmt.Fprintf(&b, "- `%s`: %s\n", m.Name, m.Reason)
		}
	}
	return []byte(b.String())
}

// formatValue renders a metric value with its unit, compacting large
// magnitudes so the table stays scannable. A space keeps a unit that
// starts with a digit ("1/s") apart from the value.
func formatValue(v float64, unit string) string {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= 1e9:
		return fmt.Sprintf("%.3g %s", v, unit)
	case abs >= 1000:
		return fmt.Sprintf("%.0f %s", v, unit)
	case abs == 0:
		return "0 " + unit
	default:
		return fmt.Sprintf("%.3g %s", v, unit)
	}
}
