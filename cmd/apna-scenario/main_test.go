package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitCodes pins the exit-code contract: 0 when the gate passes, 2
// on gate failures, 1 on usage errors.
func TestExitCodes(t *testing.T) {
	e6 := filepath.Join("..", "..", "scenarios", "e6.json")
	e7 := filepath.Join("..", "..", "scenarios", "e7.json")
	// Shutoffs requested in the first data wave: no evidence exists
	// yet, nothing files, and under shutoffs_complete the run must
	// gate-fail instead of silently skipping the revocations it was
	// asked for.
	noEvidence := filepath.Join(t.TempDir(), "no-evidence.json")
	if err := os.WriteFile(noEvidence, []byte(`{
		"name": "no-evidence",
		"seed": 1,
		"topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 2, "link_latency": "1ms"},
		"phases": [
			{"name": "issue", "actions": [{"op": "issue", "per_host": 2, "lifetime_s": 60}]},
			{"name": "dial", "actions": [{"op": "dial", "flows_per_host": 1}]},
			{"name": "wave-0", "actions": [{"op": "send"}, {"op": "shutoff", "count": 2}]}
		],
		"bounds": {"shutoffs_complete": true}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"e6 default passes", []string{"-file", e6}, 0},
		{"e6 shutoffs without evidence gate", []string{"-file", noEvidence}, 2},
		{"e7 sweep passes", []string{"-file", e7, "-seeds", "5"}, 0},
		{"no spec file", nil, 1},
		{"unknown flag", []string{"-no-such-flag"}, 1},
		{"spec file passes", []string{"-file", e6, "-seed", "7", "-json"}, 0},
		{"spec file missing", []string{"-file", "no-such-spec.json"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCmd(t, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.want, stderr)
			}
		})
	}
}

// TestSpecGateFailure proves an unmeetable bound exits 2 with the
// failure named in the verdict.
func TestSpecGateFailure(t *testing.T) {
	spec := `{
		"name": "unmeetable",
		"seed": 1,
		"topology": {"kind": "full-mesh", "ases": 2, "hosts_per_as": 1, "link_latency": "1ms"},
		"phases": [
			{"name": "issue", "actions": [{"op": "issue", "per_host": 2, "lifetime_s": 60}]},
			{"name": "dial", "actions": [{"op": "dial", "flows_per_host": 1}]},
			{"name": "send", "actions": [{"op": "send"}]}
		],
		"bounds": {"min_delivered": 1000000}
	}`
	path := filepath.Join(t.TempDir(), "unmeetable.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runCmd(t, "-file", path)
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "delivered") {
		t.Errorf("failure not named in output:\n%s", stdout)
	}
}

// TestRecordReplayRoundTrip records a chaotic run's fault schedule and
// replays it: same exit code, byte-identical verdict JSON.
func TestRecordReplayRoundTrip(t *testing.T) {
	specPath := filepath.Join("..", "..", "scenarios", "e7.json")
	sched := filepath.Join(t.TempDir(), "sched.json")

	code, captured, stderr := runCmd(t, "-file", specPath, "-record", sched, "-json")
	if code != 0 {
		t.Fatalf("capture run exit %d (stderr: %s)", code, stderr)
	}
	if _, err := os.Stat(sched); err != nil {
		t.Fatalf("schedule not recorded: %v", err)
	}

	code, replayed, stderr := runCmd(t, "-file", specPath, "-replay", sched, "-json")
	if code != 0 {
		t.Fatalf("replay run exit %d (stderr: %s)", code, stderr)
	}
	if captured != replayed {
		t.Errorf("replayed verdict differs from captured:\n%s\n%s", captured, replayed)
	}
	if !strings.Contains(stderr, "mismatched 0") {
		t.Errorf("replay alignment not reported: %s", stderr)
	}

	// A schedule replayed against the wrong seed must be refused.
	code, _, _ = runCmd(t, "-file", specPath, "-replay", sched, "-seed", "99")
	if code != 1 {
		t.Errorf("wrong-seed replay exit %d, want 1", code)
	}
	// -record in replay mode is a usage error.
	code, _, _ = runCmd(t, "-file", specPath, "-replay", sched, "-record", sched)
	if code != 1 {
		t.Errorf("record+replay exit %d, want 1", code)
	}
}
