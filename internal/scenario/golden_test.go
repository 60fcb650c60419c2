package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadSpec(t *testing.T, name string) *Spec {
	t.Helper()
	s, err := Load(filepath.Join("..", "..", "scenarios", name))
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return s
}

func runSpec(t *testing.T, s *Spec, opts RunOptions) *Result {
	t.Helper()
	res, err := Run(s, opts)
	if err != nil {
		t.Fatalf("run %s: %v", s.Name, err)
	}
	return res
}

// TestScenarioCorpusGolden runs every committed scenario spec, compares
// its verdict byte for byte against the golden under
// scenarios/testdata/, then replays the committed fault schedule and
// requires the replayed verdict to be byte-identical too — the DSL's
// regression gate. Regenerate with:
//
//	SCENARIO_REGEN=1 go test ./internal/scenario -run TestScenarioCorpusGolden
func TestScenarioCorpusGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario specs found: %v", err)
	}
	regen := os.Getenv("SCENARIO_REGEN") != ""
	for _, f := range files {
		f := f
		name := strings.TrimSuffix(filepath.Base(f), ".json")
		t.Run(name, func(t *testing.T) {
			s, err := Load(f)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			res, err := Run(s, RunOptions{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got, err := res.Verdict.JSON()
			if err != nil {
				t.Fatalf("verdict json: %v", err)
			}
			if !res.Verdict.OK {
				t.Errorf("verdict not OK: %v", res.Verdict.Failures)
			}

			goldenPath := filepath.Join("..", "..", "scenarios", "testdata", name+".verdict.json")
			schedPath := filepath.Join("..", "..", "scenarios", "testdata", name+".schedule.json")
			if regen {
				if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				if err := res.Schedule.Save(schedPath); err != nil {
					t.Fatalf("write schedule: %v", err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (regenerate with SCENARIO_REGEN=1): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("verdict drifted from golden %s:\n got: %s\nwant: %s", goldenPath, got, want)
			}

			// Replay the committed schedule: the run must consume it
			// exactly and reproduce the verdict byte for byte.
			sc, err := LoadSchedule(schedPath)
			if err != nil {
				t.Fatalf("missing schedule (regenerate with SCENARIO_REGEN=1): %v", err)
			}
			res2, err := Run(s, RunOptions{Replay: sc})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			st := res2.Replay
			if st == nil || st.Mismatched != 0 || st.Underrun != 0 || st.Leftover != 0 || st.Desynced {
				t.Errorf("replay misaligned: %+v", st)
			}
			got2, err := res2.Verdict.JSON()
			if err != nil {
				t.Fatalf("replay verdict json: %v", err)
			}
			if !bytes.Equal(got2, want) {
				t.Errorf("replayed verdict differs from golden:\n got: %s\nwant: %s", got2, want)
			}
		})
	}
}

// TestScheduleRoundTrip proves a saved schedule file reloads into the
// same events and refuses foreign specs and seeds.
func TestScheduleRoundTrip(t *testing.T) {
	s := loadSpec(t, "e7.json")
	res := runSpec(t, s, RunOptions{})
	if len(res.Schedule.Events) == 0 {
		t.Fatalf("chaotic run captured no fault events")
	}
	path := filepath.Join(t.TempDir(), "sched.json")
	if err := res.Schedule.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	sc, err := LoadSchedule(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(sc.Events) != len(res.Schedule.Events) {
		t.Fatalf("events: %d, want %d", len(sc.Events), len(res.Schedule.Events))
	}

	// Wrong seed must be rejected before anything runs.
	s2 := *s
	s2.Seed = s.Seed + 1
	if _, err := Run(&s2, RunOptions{Replay: sc}); err == nil {
		t.Errorf("replay with wrong seed accepted")
	}
	// Wrong spec (hash mismatch) must be rejected too.
	other := loadSpec(t, "e6.json")
	if _, err := Run(other, RunOptions{Replay: sc}); err == nil {
		t.Errorf("replay against a different spec accepted")
	}
}

// TestE7SpecConformanceSweep is the adversarial conformance gate:
// scenarios/e7.json (2 adversaries, chaos links) on seeds 1..5 must
// hold every paper invariant on every seed, and every attack class
// must both fire and be visibly rejected by the defense that the paper
// says stops it.
func TestE7SpecConformanceSweep(t *testing.T) {
	s := loadSpec(t, "e7.json")
	attacks := map[string]uint64{}
	defenses := map[string]uint64{}
	revoked := 0
	for seed := int64(1); seed <= 5; seed++ {
		s.Seed = seed
		v := runSpec(t, s, RunOptions{}).Verdict
		if !v.OK || v.Invariants == nil || !v.Invariants.OK {
			raw, _ := v.JSON()
			t.Errorf("seed %d violated invariants or bounds: %s", seed, raw)
		}
		if v.Flows == 0 || v.Delivered == 0 {
			t.Errorf("seed %d carried no honest traffic (%d flows, %d delivered)", seed, v.Flows, v.Delivered)
		}
		for k, n := range v.Attacks {
			attacks[k] += n
		}
		for k, n := range v.Defenses {
			defenses[k] += n
		}
		revoked += v.Revoked
	}
	for _, kind := range []string{"forged-ephid", "foreign-ephid", "expired-ephid",
		"source-spoof", "framing", "replay", "post-shutoff"} {
		if attacks[kind] == 0 {
			t.Errorf("attack %q never fired across the sweep", kind)
		}
	}
	if revoked == 0 {
		t.Error("no shutoff landed across the sweep")
	}
	// Forged/foreign/spoofed EphIDs fail authentication at egress,
	// expired ones hit the expiry check, framing dies on the per-packet
	// MAC, post-shutoff sends on the revocation list, and replays (and
	// chaos duplicates) at the hosts' replay defences.
	for _, drop := range []string{"drop-bad-ephid", "drop-expired", "drop-bad-mac",
		"drop-revoked", "host-drop-replay"} {
		if defenses[drop] == 0 {
			t.Errorf("defense %q never fired across the sweep", drop)
		}
	}
}

// TestE9SpecSweep is the lifecycle endurance gate: scenarios/e9.json on
// seeds 1..5 must pass every gate its lifetimes block implies and every
// paper invariant on every seed, with the lifecycle engine, the expiry
// checks, the replaying attacker and the revocation GC all visibly at
// work on each.
func TestE9SpecSweep(t *testing.T) {
	s := loadSpec(t, "e9.json")
	for seed := int64(1); seed <= 5; seed++ {
		s.Seed = seed
		v := runSpec(t, s, RunOptions{}).Verdict
		if !v.OK || v.Invariants == nil || !v.Invariants.OK {
			raw, _ := v.JSON()
			t.Errorf("seed %d failed a gate or an invariant: %s", seed, raw)
		}
		for what, n := range map[string]uint64{
			"renewals":           v.Renewals,
			"migrations":         v.Migrations,
			"drop-expired":       v.Defenses["drop-expired"],
			"replayed frames":    v.Attacks["replay"],
			"revocations reaped": v.RevocationsReaped,
		} {
			if n == 0 {
				t.Errorf("seed %d: no %s", seed, what)
			}
		}
	}
}
