package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apna/internal/benchgate"
)

// TestExitCodes pins the exit-code contract: 1 on usage errors — a
// flag that is not one of the five, retired ones included, so that an
// old command line cannot pass as a run — and 0 when the ramp ran and
// its gates held, with one artifact per rerun under -out.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"unknown flag", []string{"-no-such-flag"}, "-no-such-flag"},
		{"reruns without out", []string{"-reruns", "2"}, "-out"},
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
		prefix := filepath.Join(t.TempDir(), "BENCH_e11")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-workers", "2", "-reruns", "2", "-out", prefix}, &stdout, &stderr, tinyE11()); code != 0 {
			t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "population ramp") {
			t.Errorf("no ramp table on stdout:\n%s", stdout.String())
		}
		for i := 1; i <= 2; i++ {
			raw, err := os.ReadFile(fmt.Sprintf("%s_run%d.json", prefix, i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := benchgate.ParseArtifact(raw); err != nil {
				t.Errorf("run %d artifact: %v", i, err)
			}
		}
	})
}
