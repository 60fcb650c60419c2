package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyE11 shrinks the ramp so the sweep runs in a unit test while still
// crossing every gate: a short EphID lifetime forces renewal storms,
// churn feeds the GC gate, and two tiers exercise the top-tier p99
// check.
func tinyE11() e11Config {
	cfg := defaultE11()
	cfg.Tiers = []int{300, 600}
	cfg.Ticks = 24
	cfg.Workers = 2
	cfg.Population.EphIDLifetime = 6
	cfg.Population.RenewLead = 1
	cfg.Population.ChurnFrac = 0.01
	cfg.Population.PeakSessionsPerHost = 0.05
	cfg.Population.GCEvery = 5
	cfg.Population.DigestEvery = 5
	return cfg
}

func TestE11SmokeRamp(t *testing.T) {
	res, err := runE11(tinyE11())
	if err != nil {
		t.Fatalf("runE11: %v", err)
	}
	if !res.OK {
		for _, tier := range res.Tiers {
			t.Errorf("tier %d failures: %v", tier.Hosts, tier.Failures)
		}
		t.Fatalf("tiny ramp failed its gates")
	}
	if len(res.Tiers) != 2 {
		t.Fatalf("got %d tiers, want 2", len(res.Tiers))
	}
	for _, tier := range res.Tiers {
		if tier.Result.Issued == 0 || tier.Result.Renewals == 0 {
			t.Errorf("tier %d idle: %d issued, %d renewals",
				tier.Hosts, tier.Result.Issued, tier.Result.Renewals)
		}
		if tier.Result.PeakRSSBytes == 0 || tier.Result.EventsPerSec <= 0 {
			t.Errorf("tier %d missing scale metrics: rss %d, events/s %.0f",
				tier.Hosts, tier.Result.PeakRSSBytes, tier.Result.EventsPerSec)
		}
	}
	if res.Provenance.ConfigHash == "" || res.Provenance.Timestamp == "" || res.Provenance.Commit == "" {
		t.Errorf("provenance block incomplete: %+v", res.Provenance)
	}
}

func TestE11ReportShapes(t *testing.T) {
	res, err := runE11(tinyE11())
	if err != nil {
		t.Fatalf("runE11: %v", err)
	}

	// The -out artifact must be exactly one decodable object (the
	// BENCH_e11.json shape) carrying the provenance block.
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded e11Result
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("artifact is not a single JSON object: %v", err)
	}
	if decoded.Experiment != "e11" || decoded.Provenance.ConfigHash != res.Provenance.ConfigHash {
		t.Errorf("artifact round trip lost fields: %+v", decoded.Provenance)
	}

	var human bytes.Buffer
	res.Fprint(&human)
	if !strings.Contains(human.String(), "population ramp") || !strings.Contains(human.String(), "PASS") {
		t.Errorf("human report missing expected lines:\n%s", human.String())
	}
}

func TestE11RejectsBadConfig(t *testing.T) {
	for i, cfg := range []e11Config{
		{},
		{Tiers: []int{100}, Ticks: 0, P99BoundMs: 25},
		{Tiers: []int{100}, Ticks: 10, P99BoundMs: 0},
	} {
		if _, err := runE11(cfg); err == nil {
			t.Errorf("case %d: invalid e11 config accepted", i)
		}
	}
}

// TestRegenerateFixtures rewrites internal/benchgate's E11 golden
// artifact by running a tiny real configuration. It only runs under
// BENCHGATE_REGEN=1:
//
//	BENCHGATE_REGEN=1 go test -run TestRegenerateFixtures ./cmd/apna-bench
//
// The other fixture there, BENCH_bench.json, is a copy of a real
// results file: run go run ./bench from the repository root and copy
// bench/out/results.json over it. Refresh a fixture in the same PR as
// any deliberate artifact-schema change; benchgate's
// TestGoldenArtifactShapes failing without a refresh is the drift alarm
// doing its job.
func TestRegenerateFixtures(t *testing.T) {
	if os.Getenv("BENCHGATE_REGEN") != "1" {
		t.Skip("set BENCHGATE_REGEN=1 to rewrite testdata fixtures")
	}
	cfg := defaultE11()
	cfg.Tiers = []int{500, 2_000}
	cfg.Ticks = 10
	cfg.Workers = 2
	res, err := runE11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Join("..", "..", "internal", "benchgate", "testdata", "BENCH_e11.json")
	if err := os.WriteFile(name, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
