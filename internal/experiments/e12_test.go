package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// tinyE12 shrinks every phase so the full sweep runs in CI-unit time
// while exercising the same graph shape, gates and artifact schema.
func tinyE12() E12Config {
	return E12Config{
		Seed:               1,
		Core:               4,
		Mid:                8,
		Stubs:              24,
		ProvidersPerAS:     2,
		Interval:           time.Second,
		LinkLatency:        10 * time.Millisecond,
		SnapshotEvery:      32,
		Ticks:              10,
		ActiveOrigins:      4,
		Backlog:            100,
		ChurnPerTick:       2,
		MeshASes:           8,
		EquivASes:          20,
		EquivLoss:          0.05,
		EquivSnapshotEvery: 4,
		EquivChurnTicks:    2,
		EquivMaxTicks:      40,
	}
}

func TestE12Origins(t *testing.T) {
	cfg := tinyE12()
	origins := e12Origins(cfg)
	if len(origins) != cfg.ActiveOrigins {
		t.Fatalf("picked %d origins, want %d", len(origins), cfg.ActiveOrigins)
	}
	seen := map[int]bool{}
	for _, o := range origins {
		if o < 0 || o >= cfg.Core+cfg.Mid+cfg.Stubs {
			t.Fatalf("origin %d out of range", o)
		}
		if seen[o] {
			t.Fatalf("origin %d picked twice", o)
		}
		seen[o] = true
	}
}

func TestE12RejectsBadConfig(t *testing.T) {
	bad := tinyE12()
	bad.Core = 0
	if _, err := RunE12(bad); err == nil {
		t.Fatal("e12 accepted a coreless AS graph")
	}
	bad = tinyE12()
	bad.SnapshotEvery = bad.Ticks // snapshot inside the measured window
	if _, err := RunE12(bad); err == nil {
		t.Fatal("e12 accepted a snapshot cadence inside the delta window")
	}
}

// TestE12Sweep runs the full three-phase sweep at toy scale and checks
// every gate holds and the artifact is a well-formed single JSON object
// benchgate can key on.
func TestE12Sweep(t *testing.T) {
	res, err := RunE12(tinyE12())
	if err != nil {
		t.Fatalf("RunE12: %v", err)
	}
	if !res.Relay.OK {
		t.Errorf("relay phase failed: %v", res.Relay.Failures)
	}
	if !res.Mesh.OK {
		t.Errorf("mesh phase failed: %v", res.Mesh.Failures)
	}
	if !res.Equivalence.OK {
		t.Errorf("equivalence phase failed: %v", res.Equivalence.Failures)
	}
	if !res.OK {
		t.Fatal("sweep not OK")
	}

	// The complexity claim at toy scale: relay messages bounded by
	// degree×N and strictly below the mesh projection.
	if res.Relay.MsgsPerIntervalMax > res.Relay.MsgBound {
		t.Errorf("relay msgs %d above bound %d", res.Relay.MsgsPerIntervalMax, res.Relay.MsgBound)
	}
	if res.Relay.MsgsPerIntervalMax >= res.Relay.MeshMsgsProjected {
		t.Errorf("relay msgs %d not below the %d mesh projection", res.Relay.MsgsPerIntervalMax, res.Relay.MeshMsgsProjected)
	}
	if res.Mesh.MsgsPerInterval != res.Mesh.MsgsExpected {
		t.Errorf("mesh reference %d msgs, want %d", res.Mesh.MsgsPerInterval, res.Mesh.MsgsExpected)
	}
	if res.Relay.FalseInstalls+res.Mesh.FalseInstalls+res.Equivalence.FalseInstalls != 0 {
		t.Error("false installs detected")
	}

	raw, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var head struct {
		Experiment string `json:"experiment"`
		Provenance struct {
			ConfigHash string `json:"config_hash"`
		} `json:"provenance"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		t.Fatalf("artifact not a JSON object: %v", err)
	}
	if head.Experiment != "e12" || head.Provenance.ConfigHash == "" {
		t.Fatalf("artifact header incomplete: %+v", head)
	}

	var buf bytes.Buffer
	ok, err := res.Report(&buf, false)
	if err != nil || !ok {
		t.Fatalf("Report: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(buf.String(), "E12: dissemination sweep") {
		t.Fatalf("table output missing header: %q", buf.String())
	}
}

// TestE12DeterministicArtifact asserts two runs with the same config
// measure identical counts (wall time aside) — the property rerun
// trend-gating relies on.
func TestE12DeterministicArtifact(t *testing.T) {
	cfg := tinyE12()
	a, err := RunE12(cfg)
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := RunE12(cfg)
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	a.WallElapsed, b.WallElapsed = 0, 0
	// The provenance timestamp is wall time too: two runs straddling a
	// second boundary must not fail the determinism assertion.
	a.Provenance.Timestamp, b.Provenance.Timestamp = "", ""
	ja, _ := a.JSON()
	jb, _ := b.JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("reruns diverged:\nA: %s\nB: %s", ja, jb)
	}
}
