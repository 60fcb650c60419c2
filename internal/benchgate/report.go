package benchgate

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Summary is the whole gate run — one GateResult per compared
// experiment — and the GATE.json document shape.
type Summary struct {
	Gates []*GateResult `json:"gates"`
	// OK is false iff any gate confirmed a regression.
	OK bool `json:"ok"`
	// Skipped counts no-baseline gates (a config change, or an
	// experiment the parent did not run).
	Skipped int `json:"skipped"`
}

// Summarize rolls gate results up into the GATE.json document.
func Summarize(gates []*GateResult) *Summary {
	s := &Summary{Gates: gates, OK: true}
	for _, g := range gates {
		if g.Status == StatusFail {
			s.OK = false
		}
		if g.Status == StatusNoBaseline {
			s.Skipped++
		}
	}
	return s
}

// JSON renders the machine-readable GATE.json.
func (s *Summary) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// Markdown renders the human-readable report.md: one section per
// experiment with per-metric deltas, p-values and verdicts.
func (s *Summary) Markdown() []byte {
	var b strings.Builder
	b.WriteString("# Bench trend gate\n\n")
	switch {
	case !s.OK:
		b.WriteString("**Verdict: FAIL** — statistically confirmed regression(s) below.\n\n")
	case s.Skipped == len(s.Gates) && len(s.Gates) > 0:
		b.WriteString("**Verdict: SKIP** — no comparable baseline for any experiment (a config change, or an experiment the parent did not run).\n\n")
	default:
		b.WriteString("**Verdict: PASS** — no confirmed regression.\n\n")
	}
	for _, g := range s.Gates {
		fmt.Fprintf(&b, "## %s (`%s`, config %.12s)\n\n", g.Experiment, g.Status, g.ConfigHash)
		if g.Status == StatusNoBaseline {
			fmt.Fprintf(&b, "%s\n\n", g.Reason)
			continue
		}
		fmt.Fprintf(&b, "Baseline commit `%.12s` (%d runs) vs current `%.12s` (%d runs); α=%.2f, min effect %.0f%%.\n\n",
			g.BaselineCommit, g.BaselineRuns, g.CurrentCommit, g.CurrentRuns,
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
		b.WriteString("\n")
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
