package benchgate

import (
	"math/rand"
	"strings"
	"testing"

	"apna/internal/provenance"
)

// synth builds one synthetic single-run artifact.
func synth(hash, commit string, metrics ...Metric) *Artifact {
	return &Artifact{
		Provenance: provenance.Block{ConfigHash: hash, Commit: commit},
		Metrics:    metrics,
	}
}

// runsAround builds n reruns of a one-metric artifact whose values are
// center ± up to 1% of deterministic seeded jitter — the noise floor
// the gate must see through.
func runsAround(hash, name string, dir Direction, center float64, n int, seed int64) []*Artifact {
	rng := rand.New(rand.NewSource(seed))
	arts := make([]*Artifact, n)
	for i := range arts {
		v := center * (1 + (rng.Float64()-0.5)*0.02)
		arts[i] = synth(hash, "c0ffee", Metric{Name: name, Direction: dir, Unit: "x", Values: []float64{v}})
	}
	return arts
}

// TestGateVerdictTable is the gate-math acceptance table: a planted
// 10% throughput regression must FAIL, same-distribution reruns must
// PASS, an improved run must report IMPROVED — plus the direction,
// threshold and small-sample edges around them.
func TestGateVerdictTable(t *testing.T) {
	const hash = "cafe0000cafe0000cafe0000cafe0000"
	cases := []struct {
		name        string
		metric      string
		dir         Direction
		baseCenter  float64
		curCenter   float64
		runs        int
		wantVerdict Verdict
		wantStatus  GateStatus
	}{
		{"planted 10% pps regression fails", "pps", HigherBetter, 1e6, 0.9e6, 5, VerdictFail, StatusFail},
		{"planted 10% pps regression fails at 3 reruns", "pps", HigherBetter, 1e6, 0.9e6, 3, VerdictFail, StatusFail},
		{"same distribution passes", "pps", HigherBetter, 1e6, 1e6, 5, VerdictPass, StatusPass},
		{"improvement reports improved", "pps", HigherBetter, 1e6, 1.2e6, 5, VerdictImproved, StatusImproved},
		{"latency increase fails lower-better", "issue_p99_us", LowerBetter, 100, 120, 5, VerdictFail, StatusFail},
		{"latency drop improves lower-better", "issue_p99_us", LowerBetter, 100, 80, 5, VerdictImproved, StatusImproved},
		{"single run per side is indeterminate", "pps", HigherBetter, 1e6, 0.5e6, 1, VerdictIndeterminate, StatusPass},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runsAround(hash, tc.metric, tc.dir, tc.baseCenter, tc.runs, 1)
			cur := runsAround(hash, tc.metric, tc.dir, tc.curCenter, tc.runs, 2)
			res, err := Compare(base, cur)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != tc.wantStatus {
				t.Errorf("status %s, want %s (%+v)", res.Status, tc.wantStatus, res.Metrics)
			}
			if len(res.Metrics) != 1 {
				t.Fatalf("%d metric verdicts, want 1", len(res.Metrics))
			}
			if res.Metrics[0].Verdict != tc.wantVerdict {
				t.Errorf("verdict %s (reason %q), want %s",
					res.Metrics[0].Verdict, res.Metrics[0].Reason, tc.wantVerdict)
			}
		})
	}
}

// TestGateNoiseNeverFails sweeps many same-distribution comparisons:
// across 40 seeds of 1%-noise reruns the gate must never emit FAIL,
// because a significant-but-tiny rank difference is still below the
// minimum effect size. (Significance alone is allowed to fire; the
// effect threshold is what turns it into a pass.)
func TestGateNoiseNeverFails(t *testing.T) {
	const hash = "beef0000beef0000"
	for seed := int64(0); seed < 40; seed++ {
		base := runsAround(hash, "pps", HigherBetter, 1e6, 3, seed*2+1)
		cur := runsAround(hash, "pps", HigherBetter, 1e6, 3, seed*2+2)
		res, err := Compare(base, cur)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == StatusFail {
			t.Fatalf("seed %d: same-distribution reruns failed the gate: %+v", seed, res.Metrics)
		}
	}
}

// TestGateSubThresholdChangePasses: a perfectly separated but 2% shift
// is statistically significant yet below the 5% effect floor — pass.
func TestGateSubThresholdChangePasses(t *testing.T) {
	const hash = "f00d0000"
	base := []*Artifact{
		synth(hash, "a", Metric{Name: "pps", Direction: HigherBetter, Values: []float64{1000}}),
		synth(hash, "a", Metric{Name: "pps", Direction: HigherBetter, Values: []float64{1001}}),
		synth(hash, "a", Metric{Name: "pps", Direction: HigherBetter, Values: []float64{1002}}),
	}
	cur := []*Artifact{
		synth(hash, "b", Metric{Name: "pps", Direction: HigherBetter, Values: []float64{980}}),
		synth(hash, "b", Metric{Name: "pps", Direction: HigherBetter, Values: []float64{981}}),
		synth(hash, "b", Metric{Name: "pps", Direction: HigherBetter, Values: []float64{982}}),
	}
	res, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusPass {
		t.Fatalf("status %s, want pass: %+v", res.Status, res.Metrics)
	}
	if !strings.Contains(res.Metrics[0].Reason, "below") {
		t.Errorf("reason %q should mention the effect threshold", res.Metrics[0].Reason)
	}
}

// TestGateConfigHashMismatchSkips: a changed experiment configuration
// must yield "no comparable baseline" — a skip, never a verdict.
func TestGateConfigHashMismatchSkips(t *testing.T) {
	base := runsAround("hash-old", "pps", HigherBetter, 1e6, 3, 1)
	cur := runsAround("hash-new", "pps", HigherBetter, 0.5e6, 3, 2)
	res, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNoBaseline {
		t.Fatalf("status %s, want no-baseline", res.Status)
	}
	if res.Status == StatusFail {
		t.Error("no-baseline must not hold the build")
	}
	if len(res.Metrics) != 0 {
		t.Errorf("no-baseline emitted %d metric verdicts — a false comparison", len(res.Metrics))
	}
	if !strings.Contains(res.Reason, "not comparable") {
		t.Errorf("reason %q should say the sides are not comparable", res.Reason)
	}
}

// TestGateMissingMetricNeverFails: a metric present on only one side
// (schema drift, new metric) is reported but cannot fail the build.
func TestGateMissingMetricNeverFails(t *testing.T) {
	const hash = "feed"
	base := []*Artifact{
		synth(hash, "a",
			Metric{Name: "pps", Direction: HigherBetter, Values: []float64{100, 101}}),
	}
	cur := []*Artifact{
		synth(hash, "b",
			Metric{Name: "pps", Direction: HigherBetter, Values: []float64{100, 101}},
			Metric{Name: "gbps_delivered", Direction: HigherBetter, Values: []float64{5, 5}}),
	}
	res, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusFail {
		t.Fatalf("missing metric failed the gate: %+v", res.Metrics)
	}
	var gotMissing bool
	for _, m := range res.Metrics {
		if m.Name == "gbps_delivered" && m.Verdict == VerdictMissing {
			gotMissing = true
		}
	}
	if !gotMissing {
		t.Errorf("one-sided metric not reported as missing: %+v", res.Metrics)
	}
}

// TestGateDeterministicMetricsTie: byte-identical deterministic
// counters across sides (ties everywhere) must pass with p = 1.
func TestGateDeterministicMetricsTie(t *testing.T) {
	const hash = "d00d"
	mk := func(commit string) []*Artifact {
		var arts []*Artifact
		for i := 0; i < 3; i++ {
			arts = append(arts, synth(hash, commit,
				Metric{Name: "renewals", Direction: HigherBetter, Values: []float64{8}}))
		}
		return arts
	}
	res, err := Compare(mk("a"), mk("b"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusPass || res.Metrics[0].P != 1 {
		t.Fatalf("deterministic tie: status %s p=%v, want pass p=1", res.Status, res.Metrics[0].P)
	}
}

// TestGateEmptyBaselineErrors: a side with no artifacts is an error,
// never a skip — apna-gate refuses an empty directory before Compare.
func TestGateEmptyBaselineErrors(t *testing.T) {
	cur := runsAround("h", "pps", HigherBetter, 1e6, 3, 1)
	if res, err := Compare(nil, cur); err == nil {
		t.Fatalf("empty baseline side accepted: status %s", res.Status)
	}
}

// TestCompareValidation pins the hard errors (never silent) for
// malformed comparisons.
func TestCompareValidation(t *testing.T) {
	good := runsAround("h", "pps", HigherBetter, 1e6, 2, 1)
	if _, err := Compare(good, nil); err == nil {
		t.Error("empty current side accepted")
	}
	mixed := []*Artifact{good[0], synth("other", "c")}
	if _, err := Compare(good, mixed); err == nil {
		t.Error("mixed config hashes within the current side accepted")
	}
	if _, err := Compare(mixed, good); err == nil {
		t.Error("mixed config hashes within the baseline side accepted")
	}
}

// TestGateReports: the GATE.json document and report.md carry the
// verdicts, and a skip says why.
func TestGateReports(t *testing.T) {
	const hash = "abad1dea"
	base := runsAround(hash, "pps", HigherBetter, 1e6, 3, 1)
	fail, err := Compare(base, runsAround(hash, "pps", HigherBetter, 0.8e6, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := fail.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"status": "fail"`, `"regressions": 1`, `"verdict": "fail"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("GATE.json missing %q", want)
		}
	}
	md := string(fail.Markdown())
	for _, want := range []string{"Verdict: FAIL", "| pps |", "**FAIL**"} {
		if !strings.Contains(md, want) {
			t.Errorf("report.md missing %q", want)
		}
	}
	skip, err := Compare(base, runsAround("other", "pps", HigherBetter, 0.5e6, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if md := string(skip.Markdown()); !strings.Contains(md, "Verdict: SKIP") || !strings.Contains(md, "not comparable") {
		t.Errorf("skip report does not say why:\n%s", md)
	}
	// A unit that starts with a digit must not run into the value.
	for v, want := range map[float64]string{285299.4: "285299 1/s", 0.0499: "0.0499 1/s", 0: "0 1/s", 2.5e9: "2.5e+09 1/s"} {
		if got := formatValue(v, "1/s"); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}
