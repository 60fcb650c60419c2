package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// e8Artifact writes a minimal E8 artifact reporting pps and returns
// its path.
func e8Artifact(t *testing.T, name string, pps float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	raw := fmt.Sprintf(`{"experiment":"e8","provenance":{"commit":"c0ffee","config_hash":"ab12"},"report":{"pps":%g,"gbps_delivered":1}}`, pps)
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes pins the exit-code contract: 2 means a statistically
// confirmed regression and nothing else; every usage or parse error is
// 1, and a pass is 0.
func TestExitCodes(t *testing.T) {
	var base, same, slow []string
	for i, pps := range []float64{1000, 1010, 990} {
		base = append(base, e8Artifact(t, fmt.Sprintf("base%d.json", i), pps))
		same = append(same, e8Artifact(t, fmt.Sprintf("same%d.json", i), pps+1))
		slow = append(slow, e8Artifact(t, fmt.Sprintf("slow%d.json", i), pps*0.8))
	}
	e9 := filepath.Join(t.TempDir(), "BENCH_e9.json")
	if err := os.WriteFile(e9, []byte(`{"experiment":"e9","provenance":{"config_hash":"ab12"}}`+"\n"+`{"seed":1,"renewals":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// The baseline goes through the store the way CI's does: update
	// writes it, compare reads it.
	store := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"update", "-store", store}, base...), &stdout, &stderr); code != 0 {
		t.Fatalf("update exit %d: %s", code, stderr.String())
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no subcommand", nil, 1},
		{"unknown subcommand", []string{"gate"}, 1},
		{"unknown flag", []string{"compare", "-bogus", base[0]}, 1},
		{"unknown update flag", []string{"update", "-bogus", base[0]}, 1},
		{"compare without artifacts", []string{"compare", "-store", store}, 1},
		{"compare without store", []string{"compare", base[0]}, 1},
		{"retired base flag", []string{"compare", "-store", store, "-base", base[0], base[1]}, 1},
		{"retired e9 artifact", []string{"compare", "-store", t.TempDir(), e9}, 1},
		{"update without store", []string{"update", base[0]}, 1},
		{"seeded regression", append([]string{"compare", "-store", store}, slow...), 2},
		{"pass", append([]string{"compare", "-store", store}, same...), 0},
		{"no baseline is a skip", append([]string{"compare", "-store", t.TempDir()}, slow...), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}
