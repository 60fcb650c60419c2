package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"apna/internal/engine"
)

// TestRunE8SmallAndJSONShape runs a small E8 saturation the way
// apna-bench does (engine.Saturate) and checks the BENCH_e8.json
// artifact and table it writes.

func TestRunE8SmallAndJSONShape(t *testing.T) {
	cfg := engine.DefaultSaturation()
	cfg.ASes = 2
	cfg.HostsPerAS = 8
	cfg.FramesPerLane = 64
	cfg.Workers = 2
	cfg.PacketsPerWorker = 2_000
	cfg.BadFrac = 0.2

	res, err := engine.Saturate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiment != "e8" {
		t.Fatalf("experiment %q", res.Experiment)
	}
	if res.Report.Packets != 4_000 {
		t.Fatalf("packets %d", res.Report.Packets)
	}
	if res.Report.Dropped == 0 {
		t.Fatal("expected drops with 20% bad traffic")
	}
	if !res.OK || len(res.Failures) != 0 {
		t.Fatalf("healthy saturation run failed its own gate (apna-bench would exit 2): %v", res.Failures)
	}

	// The JSON artifact must carry the BENCH_e8.json essentials.
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	prov, ok := m["provenance"].(map[string]any)
	if !ok {
		t.Fatal("missing provenance object")
	}
	for _, key := range []string{"commit", "seed", "config_hash", "timestamp"} {
		if _, ok := prov[key]; !ok {
			t.Errorf("provenance JSON missing %q", key)
		}
	}
	rep, ok := m["report"].(map[string]any)
	if !ok {
		t.Fatal("missing report object")
	}
	if _, ok := m["ok"]; !ok {
		t.Error("artifact JSON missing the gate verdict field \"ok\"")
	}
	for _, key := range []string{"pps", "workers", "verdicts", "stages", "delivered", "dropped"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
	stages, _ := rep["stages"].(map[string]any)
	for _, stage := range []string{"egress", "transit", "ingress"} {
		if _, ok := stages[stage]; !ok {
			t.Errorf("stages JSON missing %q", stage)
		}
	}

	// Human rendering mentions the headline numbers.
	var buf bytes.Buffer
	res.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"E8", "Mpps", "egress", "transit", "ingress", "verdicts"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}
