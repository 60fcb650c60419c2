package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// side writes one side's directory: a minimal results file of the
// benchmark (go run ./bench) per value of ops, whose fwd_small
// workload ran at that many ops/s under config hash hash.
func side(t *testing.T, hash string, ops ...float64) string {
	t.Helper()
	dir := t.TempDir()
	for i, v := range ops {
		raw := fmt.Sprintf(`{"provenance":{"commit":"c0ffee","config_hash":%q},"workloads":{"fwd_small":{"attempted":1000,"failed":0,"metrics":{`+
			`"ops_per_s":{"unit":"1/s","median":%g},"setup_s":{"unit":"s","median":0.001}}}}}`, hash, v)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("bench_run%d.json", i+1)), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestExitCodes pins the exit-code contract: 2 means a statistically
// confirmed regression and nothing else; every usage or parse error is
// 1, and a pass or a skip is 0.
func TestExitCodes(t *testing.T) {
	base := side(t, "ab12", 1000, 1010, 990)
	same := side(t, "ab12", 1001, 1011, 991)
	slow := side(t, "ab12", 800, 808, 792)
	otherConfig := side(t, "cd34", 800, 808, 792)
	e9 := t.TempDir()
	if err := os.WriteFile(filepath.Join(e9, "BENCH_e9.json"), []byte(`{"experiment":"e9","provenance":{"config_hash":"ab12"}}`+"\n"+`{"seed":1,"renewals":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	withE11 := side(t, "ab12", 1000, 1010, 990)
	if err := os.WriteFile(filepath.Join(withE11, "e11.json"), []byte(`{"experiment":"e11","provenance":{"config_hash":"ab12"},"tiers":[{"hosts":1000,"result":{"events_per_sec":1}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	withJunk := side(t, "ab12", 1001, 1011, 991)
	if err := os.WriteFile(filepath.Join(withJunk, "notes.json"), []byte("runner was busy"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
		// stderr, when set, must appear in the error output.
		stderr string
	}{
		{"no subcommand", nil, 1, ""},
		{"unknown subcommand", []string{"gate"}, 1, ""},
		{"unknown flag", []string{"compare", "-bogus", base, same}, 1, ""},
		{"compare without artifacts", []string{"compare", base, t.TempDir()}, 1, ""},
		{"one directory is a usage error", []string{"compare", base}, 1, ""},
		{"retired e9 artifact", []string{"compare", base, e9}, 1, ""},
		{"e11 artifact in a side", []string{"compare", withE11, same}, 1, "e11.json: benchgate: artifact carries no workloads"},
		{"one unreadable file fails its side", []string{"compare", base, withJunk}, 1, "notes.json"},
		{"seeded regression", []string{"compare", base, slow}, 2, ""},
		{"pass", []string{"compare", base, same}, 0, ""},
		{"config-hash mismatch is a skip", []string{"compare", base, otherConfig}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.want, stdout.String(), stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
		})
	}
}
