package benchgate

import (
	"os"
	"path/filepath"
	"testing"

	"apna/internal/engine"
	"apna/internal/experiments"
)

// TestRegenerateFixtures rewrites the golden artifacts under testdata/
// by running tiny real configurations of each experiment. It only runs
// under BENCHGATE_REGEN=1:
//
//	BENCHGATE_REGEN=1 go test -run TestRegenerateFixtures ./internal/benchgate
//
// Regenerate the fixtures in the same PR as any deliberate artifact-
// schema change; TestGoldenArtifactShapes failing without a fixture
// refresh is the drift alarm doing its job.
func TestRegenerateFixtures(t *testing.T) {
	if os.Getenv("BENCHGATE_REGEN") != "1" {
		t.Skip("set BENCHGATE_REGEN=1 to rewrite testdata fixtures")
	}
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote testdata/%s (%d bytes)", name, len(data))
	}

	e8cfg := engine.DefaultSaturation()
	e8cfg.ASes = 2
	e8cfg.HostsPerAS = 8
	e8cfg.FramesPerLane = 64
	e8cfg.Workers = 2
	e8cfg.PacketsPerWorker = 2_000
	e8cfg.BadFrac = 0.2
	e8res, err := engine.Saturate(e8cfg)
	if err != nil {
		t.Fatal(err)
	}
	e8raw, err := e8res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	write("BENCH_e8.json", append(e8raw, '\n'))

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
	write("BENCH_e11.json", append(e11raw, '\n'))
}
