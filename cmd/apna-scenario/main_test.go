package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"apna/internal/scenario"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitCodes pins the exit-code contract: 0 when the gate passes, 2
// on gate failures, 1 on usage errors; a run without -file points at
// the experiment map in cmd/README.md.
func TestExitCodes(t *testing.T) {
	e6 := filepath.Join("..", "..", "scenarios", "e6.json")
	e7 := filepath.Join("..", "..", "scenarios", "e7.json")
	e9 := filepath.Join("..", "..", "scenarios", "e9.json")
	e10 := filepath.Join("..", "..", "scenarios", "e10.json")
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
		name   string
		args   []string
		want   int
		stderr string // a substring stderr must hold, if set
	}{
		{"e6 default passes", []string{"-file", e6}, 0, ""},
		{"e6 shutoffs without evidence gate", []string{"-file", noEvidence}, 2, ""},
		{"e7 sweep passes", []string{"-file", e7, "-seeds", "5"}, 0, ""},
		{"e9 sweep passes", []string{"-file", e9, "-seed", "1", "-seeds", "5"}, 0, ""},
		{"e10 sweep passes", []string{"-file", e10, "-seed", "1", "-seeds", "5"}, 0, ""},
		{"no spec file", nil, 1, "cmd/README.md"},
		{"unknown flag", []string{"-no-such-flag"}, 1, ""},
		{"spec file passes", []string{"-file", e6, "-seed", "7", "-json"}, 0, ""},
		{"spec file missing", []string{"-file", "no-such-spec.json"}, 1, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCmd(t, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.want, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr %q does not name %q", stderr, tc.stderr)
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

// TestE10GatesHaveTeeth proves the gates scenarios/e10.json's actions
// imply are live: without its dissemination block the third-party
// borders never learn of the revocations the attackers then exploit,
// and without its complaints nothing is revoked at all — either way
// the run exits 2.
func TestE10GatesHaveTeeth(t *testing.T) {
	spec, err := scenario.Load(filepath.Join("..", "..", "scenarios", "e10.json"))
	if err != nil {
		t.Fatal(err)
	}
	noDissemination := *spec
	noDissemination.Dissemination = nil
	noComplaint := *spec
	noComplaint.Phases = slices.DeleteFunc(slices.Clone(spec.Phases), func(ph scenario.PhaseSpec) bool {
		return slices.ContainsFunc(ph.Actions, func(a scenario.ActionSpec) bool { return a.Complain })
	})
	if len(noComplaint.Phases) != len(spec.Phases)-1 {
		t.Fatalf("e10.json has no complaint phase to remove")
	}
	for name, s := range map[string]*scenario.Spec{"no dissemination": &noDissemination, "no complaint": &noComplaint} {
		t.Run(name, func(t *testing.T) {
			raw, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "e10.json")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if code, stdout, stderr := runCmd(t, "-file", path); code != 2 {
				t.Fatalf("exit %d, want 2\n%s%s", code, stdout, stderr)
			}
		})
	}
}

// TestE9GatesHaveTeeth proves the gates scenarios/e9.json's lifetimes
// block implies are live. Without the lifecycle engine the pools expire
// under the churn, and with a client pool of two the long flows hold
// every EphID the churn would need: either way pooled dials starve
// (ErrNoEphID). A check cadence longer than the run renews nothing, and
// a GC cadence longer than the run reaps none of the voluntary
// revocations. Each run exits 2.
func TestE9GatesHaveTeeth(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "e9.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*scenario.Spec)
		want   string
	}{
		{"no lifetimes", func(s *scenario.Spec) { s.Lifetimes = nil }, "ErrNoEphID"},
		{"client pool of two", func(s *scenario.Spec) {
			for i, a := range s.Phases[0].Actions {
				if a.Op == scenario.OpIssue && slices.Equal(a.Roles, []string{"cli"}) {
					s.Phases[0].Actions[i].PerHost = 2
				}
			}
		}, "ErrNoEphID"},
		{"renewals never start", func(s *scenario.Spec) { s.Lifetimes.CheckInterval = scenario.Duration(time.Hour) }, "no renewals"},
		{"GC never runs", func(s *scenario.Spec) { s.Lifetimes.GCInterval = scenario.Duration(time.Hour) }, "reaped no revocation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := scenario.Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(s)
			out, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "e9.json")
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := runCmd(t, "-file", path)
			if code != 2 {
				t.Fatalf("exit %d, want 2\n%s%s", code, stdout, stderr)
			}
			if !strings.Contains(stdout, tc.want) {
				t.Errorf("failure %q not named in output:\n%s", tc.want, stdout)
			}
		})
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
	if !strings.Contains(stderr, "diverged 0, mismatched 0") {
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
