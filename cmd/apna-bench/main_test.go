package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins the exit-code contract: 0 when the experiment ran,
// 1 on usage errors — an -exp that names no experiment among them, so
// that a typo or a retired name cannot pass as a run.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string
	}{
		{"unknown experiment", []string{"-exp", "e13"}, 1, "valid: all, e1,"},
		{"retired experiment", []string{"-exp", "e7"}, 1, "apna-scenario"},
		{"reruns without out", []string{"-exp", "e12", "-reruns", "2"}, 1, "-out"},
		{"unknown flag", []string{"-no-such-flag"}, 1, ""},
		{"e5 runs", []string{"-exp", "e5"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.want {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
			if (stdout.Len() > 0) != (code == 0) {
				t.Errorf("exit %d with %d bytes on stdout", code, stdout.Len())
			}
		})
	}
}
