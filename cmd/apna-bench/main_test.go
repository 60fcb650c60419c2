package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins the exit-code contract: 0 when the experiment ran,
// 1 on usage errors — an -exp that names no experiment among them, so
// that a typo or a retired name cannot pass as a run, and a flag that
// is not one of the seven.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string
	}{
		{"unknown experiment", []string{"-exp", "e13"}, 1, "valid: all, e1,"},
		{"retired experiment", []string{"-exp", "e7"}, 1, "apna-scenario"},
		{"retired experiment e10", []string{"-exp", "e10"}, 1, "scenarios/e10.json"},
		{"retired experiment e9", []string{"-exp", "e9"}, 1, "scenarios/e9.json"},
		{"retired e9 flag", []string{"-exp", "e11", "-windows", "4"}, 1, ""},
		{"reruns without out", []string{"-exp", "e11", "-reruns", "2"}, 1, "-out"},
		{"e12 is a test", []string{"-exp", "e12"}, 1, "go test -run TestDisseminationAtScale ./internal/accountability"},
		{"e2 is a test", []string{"-exp", "e2"}, 1, "go test -run TestPaperScaleTrace ./internal/trace"},
		{"e5 is a test", []string{"-exp", "e5"}, 1, "go test -run TestConnectionRTTs ."},
		{"unknown flag", []string{"-no-such-flag"}, 1, ""},
		{"retired json flag", []string{"-exp", "e8", "-json"}, 1, "-json"},
		{"retired hosts flag", []string{"-exp", "e8", "-hosts", "16"}, 1, "-hosts"},
		{"e8 runs", []string{"-exp", "e8", "-pkts", "1000", "-fwd-workers", "1"}, 0, ""},
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
