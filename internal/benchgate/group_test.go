package benchgate

import "testing"

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
