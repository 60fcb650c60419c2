package benchgate

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

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

	e8cfg := experiments.DefaultE8()
	e8cfg.ASes = 2
	e8cfg.HostsPerAS = 8
	e8cfg.FramesPerLane = 64
	e8cfg.Workers = 2
	e8cfg.PacketsPerWorker = 2_000
	e8cfg.BadFrac = 0.2
	e8res, err := experiments.RunE8(e8cfg)
	if err != nil {
		t.Fatal(err)
	}
	e8raw, err := e8res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	write("BENCH_e8.json", append(e8raw, '\n'))

	e9cfg := experiments.DefaultE9()
	e9cfg.Seeds = []int64{1, 2}
	e9res, err := experiments.RunE9(e9cfg)
	if err != nil {
		t.Fatal(err)
	}
	var e9buf bytes.Buffer
	if err := e9res.FprintJSON(&e9buf); err != nil {
		t.Fatal(err)
	}
	write("BENCH_e9.json", e9buf.Bytes())

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

	e12cfg := experiments.DefaultE12()
	e12cfg.Core, e12cfg.Mid, e12cfg.Stubs = 4, 8, 24
	e12cfg.ActiveOrigins = 4
	e12cfg.Backlog = 100
	e12cfg.ChurnPerTick = 2
	e12cfg.MeshASes = 8
	e12cfg.EquivASes = 20
	e12cfg.EquivChurnTicks = 2
	e12res, err := experiments.RunE12(e12cfg)
	if err != nil {
		t.Fatal(err)
	}
	e12raw, err := e12res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	write("BENCH_e12.json", append(e12raw, '\n'))
}
