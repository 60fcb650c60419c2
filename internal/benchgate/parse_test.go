package benchgate

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return data
}

// TestGoldenArtifactShapes pins the exact metric set the parser
// extracts from a real results file. testdata/BENCH_bench.json is a
// copy of one: run go run ./bench from the repository root and copy
// bench/out/results.json over it, in the same change as any deliberate
// schema change. A future change that renames or drops a results field
// lands here first — silently shrinking the gate's metric coverage is
// exactly the schema drift this test exists to catch.
func TestGoldenArtifactShapes(t *testing.T) {
	const fixture = "BENCH_bench.json"
	want := []string{
		"ctl_population/ops_per_s", "ctl_population/setup_s",
		"fwd_churn/ops_per_s", "fwd_churn/setup_s",
		"fwd_large/ops_per_s", "fwd_large/setup_s",
		"fwd_small/ops_per_s", "fwd_small/setup_s",
		"host_connect/ops_per_s", "host_connect/setup_s",
		"host_send/ops_per_s", "host_send/setup_s",
	}
	t.Run(fixture, func(t *testing.T) {
		art, err := ParseArtifact(readFixture(t, fixture))
		if err != nil {
			t.Fatal(err)
		}
		if art.Provenance.ConfigHash == "" || art.Provenance.Commit == "" {
			t.Fatalf("provenance incomplete: %+v", art.Provenance)
		}
		got := make([]string, len(art.Metrics))
		for i, m := range art.Metrics {
			got[i] = m.Name
			if len(m.Values) != 1 {
				t.Errorf("%s: %d samples, want 1", m.Name, len(m.Values))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("metric set drifted:\n got %v\nwant %v", got, want)
		}
	})
}

// TestGoldenDirections pins direction tags on the metrics where a flip
// would invert the gate (a faster set-up reported as a regression).
func TestGoldenDirections(t *testing.T) {
	art, err := ParseArtifact(readFixture(t, "BENCH_bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]Direction{
		"fwd_small/ops_per_s": HigherBetter,
		"fwd_churn/setup_s":   LowerBetter,
		"host_send/ops_per_s": HigherBetter,
	} {
		m := art.Metric(name)
		if m == nil {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Direction != want {
			t.Errorf("%s: direction %v, want %v", name, m.Direction, want)
		}
	}
}

// TestParseArtifactRejects pins the loud-failure contract: malformed
// input must error, never yield a quietly empty metric series.
func TestParseArtifactRejects(t *testing.T) {
	results := string(readFixture(t, "BENCH_bench.json"))
	// The retired E9 artifact was JSON lines: a header, then a verdict
	// per seed. Whatever its lines hold, the shape is refused.
	e9Header := `{"experiment":"e9","provenance":{"config_hash":"ab"}}`
	// The retired E11 ramp artifact: a valid JSON object with a
	// provenance block, but no workloads.
	e11Shape := `{"experiment":"e11","provenance":{"commit":"c0ffee","config_hash":"ab"},` +
		`"tiers":[{"hosts":500,"result":{"events_per_sec":1e5,"issue_latency":{"p99_us":40}}}]}`
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"empty", "", "empty artifact"},
		{"whitespace", "  \n\t", "empty artifact"},
		{"not json", "pps: 12345", "not a JSON results file"},
		{"unknown experiment", `{"experiment":"e99","provenance":{"config_hash":"ab"}}`, "no workloads"},
		{"retired e10 shape", `{"experiment":"e10","provenance":{"config_hash":"ab"}}` + "\n" + `{"seed":1}`, "trailing data"},
		{"no experiment", `{"provenance":{"config_hash":"ab"}}`, "no workloads"},
		{"missing provenance", `{"workloads":{"fwd_small":{"metrics":{"ops_per_s":{"median":1}}}}}`, "no provenance config hash"},
		{"jsonlines header only", e9Header, "no workloads"},
		{"truncated jsonlines", results + "\n" + `{"seed":1,"renewals":`, "trailing data"},
		{"verdict without seed", e9Header + "\n" + `{"renewals":3}`, "trailing data"},
		{"trailing garbage after object", results + `{"extra":true}`, "trailing data"},
		{"results without workloads", `{"provenance":{"config_hash":"ab"},"workloads":{}}`, "no workloads"},
		{"workload without an end-to-end metric", `{"provenance":{"config_hash":"ab"},"workloads":{"fwd_small":{"metrics":{"ops_per_s":{"median":1}}}}}`, "fwd_small carries no setup_s"},
		{"workload that failed operations", `{"provenance":{"config_hash":"ab"},"workloads":{"fwd_small":{"failed":3,"metrics":{}}}}`, "fwd_small failed 3 operations"},
		{"e8 without report", `{"experiment":"e8","provenance":{"config_hash":"ab"}}`, "no workloads"},
		{"e11 artifact", e11Shape, "no workloads"},
		{"e12 without phases", `{"experiment":"e12","provenance":{"config_hash":"ab"}}`, "no workloads"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseArtifact([]byte(tc.input))
			if err == nil {
				t.Fatal("parse accepted malformed artifact")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestEndToEndMatchesBenchmark holds the gate to BENCHMARK.json: it
// gates exactly the end_to_end metrics the benchmark declares, each in
// the direction that metric's "better" names.
func TestEndToEndMatchesBenchmark(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	gated := map[string]Direction{}
	for _, m := range endToEnd {
		gated[m.name] = m.dir
	}
	for _, m := range manifest.EndToEnd {
		want := map[string]Direction{"higher": HigherBetter, "lower": LowerBetter}[m.Better]
		dir, ok := gated[m.Name]
		switch {
		case !ok:
			t.Errorf("end_to_end metric %s is not gated", m.Name)
		case dir != want || (m.Better != "higher" && m.Better != "lower"):
			t.Errorf("end_to_end metric %s: gate direction %v, BENCHMARK.json says %q", m.Name, dir, m.Better)
		}
		delete(gated, m.Name)
	}
	for name := range gated {
		t.Errorf("the gate reads %s, which BENCHMARK.json's end_to_end does not declare", name)
	}
}
