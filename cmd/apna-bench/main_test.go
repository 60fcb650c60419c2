package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins the exit-code contract: 1 on usage errors — a
// flag that is not one of the four, retired ones included, so that an
// old command line cannot pass as a run — and 0 when the ramp ran and
// its gates held, with its artifact under -out.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"unknown flag", []string{"-no-such-flag"}, "-no-such-flag"},
		{"retired reruns flag", []string{"-reruns", "2"}, "-reruns"},
		{"retired exp flag", []string{"-exp", "e11"}, "-exp"},
		{"retired pkts flag", []string{"-pkts", "1000"}, "-pkts"},
		{"retired fwd-workers flag", []string{"-fwd-workers", "4"}, "-fwd-workers"},
		{"retired e9 flag", []string{"-windows", "4"}, "-windows"},
		{"retired json flag", []string{"-json"}, "-json"},
		{"retired hosts flag", []string{"-hosts", "16"}, "-hosts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr, tinyE11()); code != 1 {
				t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
			if stdout.Len() > 0 {
				t.Errorf("usage error with %d bytes on stdout", stdout.Len())
			}
		})
	}

	t.Run("ramp runs", func(t *testing.T) {
		dir := t.TempDir()
		out := filepath.Join(dir, "e11.json")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-workers", "2", "-out", out}, &stdout, &stderr, tinyE11()); code != 0 {
			t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "population ramp") {
			t.Errorf("no ramp table on stdout:\n%s", stdout.String())
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Fatalf("-out wrote %d files (%v), want exactly the one it names", len(entries), err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var res e11Result
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("artifact: %v", err)
		}
		if res.Provenance.ConfigHash == "" {
			t.Error("artifact carries no provenance config hash")
		}
	})
}
