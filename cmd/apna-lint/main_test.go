package main

import (
	"bytes"
	"strings"
	"testing"

	"apna/internal/analysis"
)

// TestUnknownAnalyzerListsTheSuite: a name -analyzers does not know
// exits 2, before any package is loaded, and the message lists every
// analyzer with what it reports.
func TestUnknownAnalyzerListsTheSuite(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "detwall,bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown analyzer "bogus"`) || stdout.Len() != 0 {
		t.Fatalf("stderr %q, stdout %q", msg, stdout.String())
	}
	for _, a := range analysis.All() {
		if !strings.Contains(msg, a.Name) || !strings.Contains(msg, a.Doc) {
			t.Errorf("the message does not list %s with its doc %q:\n%s", a.Name, a.Doc, msg)
		}
	}
}

// TestFlagErrorsGoToStderr: a bad flag and -h write the usage to the
// stderr writer run is handed, not to the process's own stderr.
func TestFlagErrorsGoToStderr(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{{[]string{"-bogus"}, 2}, {[]string{"-h"}, 0}} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(stderr.String(), "-analyzers") || stdout.Len() != 0 {
			t.Errorf("%v: stderr %q, stdout %q", tc.args, stderr.String(), stdout.String())
		}
	}
}
