package benchgate

import (
	"os"
	"path/filepath"
	"testing"

	"apna/internal/experiments"
)

// TestRegenerateFixtures rewrites the E11 golden artifact under
// testdata/ by running a tiny real configuration. It only runs under
// BENCHGATE_REGEN=1:
//
//	BENCHGATE_REGEN=1 go test -run TestRegenerateFixtures ./internal/benchgate
//
// BENCH_bench.json is a copy of a real results file: run go run ./bench
// from the repository root and copy bench/out/results.json over it.
// Refresh a fixture in the same PR as any deliberate artifact-schema
// change; TestGoldenArtifactShapes failing without a refresh is the
// drift alarm doing its job.
func TestRegenerateFixtures(t *testing.T) {
	if os.Getenv("BENCHGATE_REGEN") != "1" {
		t.Skip("set BENCHGATE_REGEN=1 to rewrite testdata fixtures")
	}
	e11cfg := experiments.DefaultE11()
	e11cfg.Tiers = []int{500, 2_000}
	e11cfg.Ticks = 10
	e11cfg.Workers = 2
	e11res, err := experiments.RunE11(e11cfg)
	if err != nil {
		t.Fatal(err)
	}
	e11raw, err := e11res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "BENCH_e11.json"), append(e11raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
