package benchgate

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	store := Store{Dir: filepath.Join(t.TempDir(), "nested", "store")}
	raw := readFixture(t, "BENCH_bench.json")
	if err := store.Save([][]byte{raw, raw, raw}); err != nil {
		t.Fatal(err)
	}
	art, err := ParseArtifact(raw)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load("bench", art.Provenance.ConfigHash)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 3 {
		t.Fatalf("loaded %d artifacts, want 3", len(loaded))
	}
	for _, l := range loaded {
		if !l.Provenance.Comparable(art.Provenance) {
			t.Errorf("loaded artifact lost provenance: %+v", l.Provenance)
		}
		if len(l.Metrics) != len(art.Metrics) {
			t.Errorf("loaded artifact lost metrics: %d vs %d", len(l.Metrics), len(art.Metrics))
		}
	}
	// The E11 artifact is indented over many lines; the newlines
	// survive inside the stored JSON strings.
	e11 := readFixture(t, "BENCH_e11.json")
	if err := store.Save([][]byte{e11}); err != nil {
		t.Fatal(err)
	}
	e11art, err := ParseArtifact(e11)
	if err != nil {
		t.Fatal(err)
	}
	back, err := store.Load("e11", e11art.Provenance.ConfigHash)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || len(back[0].Metrics) != len(e11art.Metrics) {
		t.Fatalf("e11 round trip lost data: %+v", back)
	}
}

func TestStoreNoBaseline(t *testing.T) {
	store := Store{Dir: t.TempDir()}
	_, err := store.Load("bench", "0123456789abcdef0123456789abcdef")
	if !errors.Is(err, ErrNoBaseline) {
		t.Fatalf("missing baseline: %v, want ErrNoBaseline", err)
	}
}

func TestStoreRefusesCorruptAndMismatched(t *testing.T) {
	store := Store{Dir: t.TempDir()}
	raw := readFixture(t, "BENCH_bench.json")
	if err := store.Save([][]byte{raw}); err != nil {
		t.Fatal(err)
	}
	art, _ := ParseArtifact(raw)
	hash := art.Provenance.ConfigHash

	// Corrupt file: loud error, not a verdict.
	path := store.path("bench", hash)
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("bench", hash); err == nil || errors.Is(err, ErrNoBaseline) {
		t.Fatalf("corrupt baseline: %v, want a hard error", err)
	}

	// A file whose stored hash disagrees with the requested one (e.g.
	// truncated-filename collision) is "no baseline", never a
	// comparison.
	if err := store.Save([][]byte{raw}); err != nil {
		t.Fatal(err)
	}
	other := hash[:16] + "ffffffffffffffffffffffffffffffffffffffffffffffff"
	if _, err := store.Load("bench", other); !errors.Is(err, ErrNoBaseline) {
		t.Fatalf("hash-mismatched baseline: %v, want ErrNoBaseline", err)
	}
}

func TestStoreRejectsMixedSaves(t *testing.T) {
	store := Store{Dir: t.TempDir()}
	if err := store.Save([][]byte{readFixture(t, "BENCH_bench.json"), readFixture(t, "BENCH_e11.json")}); err == nil {
		t.Fatal("mixed-experiment baseline save accepted")
	}
	if err := store.Save(nil); err == nil {
		t.Fatal("empty baseline save accepted")
	}
}

func TestGroupArtifacts(t *testing.T) {
	results := readFixture(t, "BENCH_bench.json")
	e11 := readFixture(t, "BENCH_e11.json")
	groups, err := GroupArtifacts(
		[]string{"bench_run1.json", "bench_run2.json", "e11_run1.json"},
		[][]byte{results, results, e11})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
	if groups[0].Experiment != "bench" || len(groups[0].Artifacts) != 2 {
		t.Errorf("group 0: %s with %d runs, want bench with 2", groups[0].Experiment, len(groups[0].Artifacts))
	}
	if groups[1].Experiment != "e11" || len(groups[1].Artifacts) != 1 {
		t.Errorf("group 1: %s with %d runs, want e11 with 1", groups[1].Experiment, len(groups[1].Artifacts))
	}
	if _, err := GroupArtifacts([]string{"bad.json"}, [][]byte{[]byte("not json")}); err == nil {
		t.Error("unparseable artifact silently ignored")
	}
	if _, err := GroupArtifacts(nil, nil); err == nil {
		t.Error("empty artifact set accepted")
	}
}
