package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"apna/internal/provenance"
)

// TestJSONLinesProvenanceHeader checks the E9 artifact leads with a
// provenance header line and stay valid JSON-lines: every BENCH_*.json
// must record which commit, seed and configuration produced it.
func TestJSONLinesProvenanceHeader(t *testing.T) {
	cases := []struct {
		name string
		emit func(*bytes.Buffer) error
	}{
		{"e9", func(buf *bytes.Buffer) error {
			r := &E9Result{
				Provenance: provenance.Collect(1, DefaultE9()),
				Verdicts:   []E9Verdict{{Seed: 1, OK: true}},
			}
			return r.FprintJSON(buf)
		}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := tc.emit(&buf); err != nil {
			t.Fatalf("%s: FprintJSON: %v", tc.name, err)
		}
		sc := bufio.NewScanner(&buf)
		var lines []map[string]any
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatalf("%s: artifact line not JSON: %v\n%s", tc.name, err, sc.Text())
			}
			lines = append(lines, m)
		}
		if len(lines) != 2 {
			t.Fatalf("%s: got %d artifact lines, want header + 1 verdict", tc.name, len(lines))
		}
		if lines[0]["experiment"] != tc.name {
			t.Errorf("%s: header experiment = %v", tc.name, lines[0]["experiment"])
		}
		prov, ok := lines[0]["provenance"].(map[string]any)
		if !ok || prov["config_hash"] == "" || prov["commit"] == "" {
			t.Errorf("%s: header provenance incomplete: %v", tc.name, lines[0])
		}
		if lines[1]["seed"] != float64(1) {
			t.Errorf("%s: verdict line lost its seed: %v", tc.name, lines[1])
		}
	}
}
