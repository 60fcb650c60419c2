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
		t.Fatalf("fixture %s: %v (see TestRegenerateFixtures)", name, err)
	}
	return data
}

// TestGoldenArtifactShapes pins the exact metric set the parser
// extracts from one real artifact of each shape. A future PR that
// renames or drops an artifact field lands here first — silently
// shrinking the gate's metric coverage is exactly the schema drift
// this test exists to catch.
func TestGoldenArtifactShapes(t *testing.T) {
	cases := []struct {
		fixture    string
		experiment string
		metrics    []string
		// samples is the expected Values length per metric.
		samples int
	}{
		{
			fixture: "BENCH_bench.json", experiment: "bench", samples: 1,
			metrics: []string{
				"ctl_population/ops_per_s", "ctl_population/setup_s",
				"fwd_churn/ops_per_s", "fwd_churn/setup_s",
				"fwd_large/ops_per_s", "fwd_large/setup_s",
				"fwd_small/ops_per_s", "fwd_small/setup_s",
				"host_connect/ops_per_s", "host_connect/setup_s",
				"host_send/ops_per_s", "host_send/setup_s",
			},
		},
		{
			fixture: "BENCH_e11.json", experiment: "e11", samples: 1,
			metrics: []string{
				"events_per_sec@500", "issue_p99_us@500", "renew_p99_us@500",
				"gc_max_pause_us@500", "digest_bytes@500", "peak_rss_bytes@500",
				"events_per_sec@2000", "issue_p99_us@2000", "renew_p99_us@2000",
				"gc_max_pause_us@2000", "digest_bytes@2000", "peak_rss_bytes@2000",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			art, err := ParseArtifact(readFixture(t, tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			if art.Experiment != tc.experiment {
				t.Fatalf("experiment %q, want %q", art.Experiment, tc.experiment)
			}
			if art.Provenance.ConfigHash == "" || art.Provenance.Commit == "" {
				t.Fatalf("provenance incomplete: %+v", art.Provenance)
			}
			got := make([]string, len(art.Metrics))
			for i := range art.Metrics {
				got[i] = art.Metrics[i].Name
			}
			if !reflect.DeepEqual(got, tc.metrics) {
				t.Errorf("metric set drifted:\n got %v\nwant %v", got, tc.metrics)
			}
			for _, m := range art.Metrics {
				if len(m.Values) != tc.samples {
					t.Errorf("%s: %d samples, want %d", m.Name, len(m.Values), tc.samples)
				}
			}
		})
	}
}

// TestGoldenDirections pins direction tags on the metrics where a flip
// would invert the gate (a faster p99 reported as a regression).
func TestGoldenDirections(t *testing.T) {
	dirs := map[string]struct {
		fixture string
		want    Direction
	}{
		"fwd_small/ops_per_s": {"BENCH_bench.json", HigherBetter},
		"fwd_churn/setup_s":   {"BENCH_bench.json", LowerBetter},
		"host_send/ops_per_s": {"BENCH_bench.json", HigherBetter},
		"events_per_sec@500":  {"BENCH_e11.json", HigherBetter},
		"issue_p99_us@2000":   {"BENCH_e11.json", LowerBetter},
		"peak_rss_bytes@500":  {"BENCH_e11.json", LowerBetter},
	}
	for name, tc := range dirs {
		art, err := ParseArtifact(readFixture(t, tc.fixture))
		if err != nil {
			t.Fatal(err)
		}
		m := art.Metric(name)
		if m == nil {
			t.Errorf("%s: metric %s missing", tc.fixture, name)
			continue
		}
		if m.Direction != tc.want {
			t.Errorf("%s: direction %v, want %v", name, m.Direction, tc.want)
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
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"empty", "", "empty artifact"},
		{"whitespace", "  \n\t", "empty artifact"},
		{"not json", "pps: 12345", "not JSON"},
		{"unknown experiment", `{"experiment":"e99","provenance":{"config_hash":"ab"}}`, "unknown experiment"},
		{"retired e10 shape", `{"experiment":"e10","provenance":{"config_hash":"ab"}}` + "\n" + `{"seed":1}`, "unknown experiment"},
		{"no experiment", `{"provenance":{"config_hash":"ab"}}`, "names no experiment"},
		{"missing provenance", `{"workloads":{"fwd_small":{"metrics":{"ops_per_s":{"median":1}}}}}`, "no provenance config hash"},
		{"jsonlines header only", e9Header, "unknown experiment"},
		{"truncated jsonlines", results + "\n" + `{"seed":1,"renewals":`, "trailing data"},
		{"verdict without seed", e9Header + "\n" + `{"renewals":3}`, "unknown experiment"},
		{"trailing garbage after object", results + `{"extra":true}`, "trailing data"},
		{"results without workloads", `{"provenance":{"config_hash":"ab"},"workloads":{}}`, "no workloads"},
		{"workload without an end-to-end metric", `{"provenance":{"config_hash":"ab"},"workloads":{"fwd_small":{"metrics":{"ops_per_s":{"median":1}}}}}`, "fwd_small carries no setup_s"},
		{"workload that failed operations", `{"provenance":{"config_hash":"ab"},"workloads":{"fwd_small":{"failed":3,"metrics":{}}}}`, "fwd_small failed 3 operations"},
		{"e8 without report", `{"experiment":"e8","provenance":{"config_hash":"ab"}}`, "unknown experiment"},
		{"e11 without tiers", `{"experiment":"e11","provenance":{"config_hash":"ab"}}`, "no tiers"},
		{"e11 tier without result", `{"experiment":"e11","provenance":{"config_hash":"ab"},"tiers":[{"hosts":10}]}`, "no result"},
		{"e12 without phases", `{"experiment":"e12","provenance":{"config_hash":"ab"}}`, "unknown experiment"},
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
