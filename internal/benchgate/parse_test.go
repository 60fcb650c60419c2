package benchgate

import (
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
		t.Fatalf("fixture %s: %v (regenerate with BENCHGATE_REGEN=1)", name, err)
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
			fixture: "BENCH_e8.json", experiment: "e8", samples: 1,
			metrics: []string{
				"pps", "gbps_delivered",
				"egress_p50_ns", "egress_p99_ns",
				"ingress_p50_ns", "ingress_p99_ns",
				"transit_p50_ns", "transit_p99_ns",
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
		"pps":                {"BENCH_e8.json", HigherBetter},
		"egress_p99_ns":      {"BENCH_e8.json", LowerBetter},
		"events_per_sec@500": {"BENCH_e11.json", HigherBetter},
		"issue_p99_us@2000":  {"BENCH_e11.json", LowerBetter},
		"peak_rss_bytes@500": {"BENCH_e11.json", LowerBetter},
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
	e8 := string(readFixture(t, "BENCH_e8.json"))
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
		{"missing provenance", `{"experiment":"e8","report":{"pps":1}}`, "no provenance config hash"},
		{"jsonlines header only", e9Header, "unknown experiment"},
		{"truncated jsonlines", e8 + "\n" + `{"seed":1,"renewals":`, "trailing data"},
		{"verdict without seed", e9Header + "\n" + `{"renewals":3}`, "unknown experiment"},
		{"trailing garbage after object", e8 + `{"extra":true}`, "trailing data"},
		{"e8 without report", `{"experiment":"e8","provenance":{"config_hash":"ab"}}`, "no report"},
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
